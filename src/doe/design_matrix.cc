#include "doe/design_matrix.hh"

#include <sstream>
#include <stdexcept>

namespace rigor::doe
{

DesignMatrix::DesignMatrix(std::size_t rows, std::size_t cols)
    : _rows(rows), _cols(cols), _data(rows * cols, std::int8_t{-1})
{
    if (rows == 0 || cols == 0)
        throw std::invalid_argument(
            "DesignMatrix: dimensions must be non-zero");
}

DesignMatrix
DesignMatrix::fromSigns(const std::vector<std::vector<int>> &signs)
{
    if (signs.empty() || signs.front().empty())
        throw std::invalid_argument("DesignMatrix::fromSigns: empty input");

    DesignMatrix m(signs.size(), signs.front().size());
    for (std::size_t r = 0; r < signs.size(); ++r) {
        if (signs[r].size() != m._cols)
            throw std::invalid_argument(
                "DesignMatrix::fromSigns: ragged rows");
        for (std::size_t c = 0; c < m._cols; ++c) {
            const int s = signs[r][c];
            if (s != 1 && s != -1)
                throw std::invalid_argument(
                    "DesignMatrix::fromSigns: entries must be +1 or -1");
            m.set(r, c, s == 1 ? Level::High : Level::Low);
        }
    }
    return m;
}

std::size_t
DesignMatrix::index(std::size_t row, std::size_t col) const
{
    if (row >= _rows || col >= _cols)
        throw std::out_of_range("DesignMatrix: index out of range");
    return row * _cols + col;
}

Level
DesignMatrix::at(std::size_t row, std::size_t col) const
{
    return static_cast<Level>(_data[index(row, col)]);
}

void
DesignMatrix::set(std::size_t row, std::size_t col, Level level)
{
    _data[index(row, col)] = static_cast<std::int8_t>(level);
}

int
DesignMatrix::sign(std::size_t row, std::size_t col) const
{
    return _data[index(row, col)];
}

std::vector<Level>
DesignMatrix::row(std::size_t row) const
{
    std::vector<Level> out(_cols);
    for (std::size_t c = 0; c < _cols; ++c)
        out[c] = at(row, c);
    return out;
}

bool
DesignMatrix::isBalanced() const
{
    for (std::size_t c = 0; c < _cols; ++c) {
        long total = 0;
        for (std::size_t r = 0; r < _rows; ++r)
            total += sign(r, c);
        if (total != 0)
            return false;
    }
    return true;
}

bool
DesignMatrix::isOrthogonal() const
{
    for (std::size_t a = 0; a < _cols; ++a)
        for (std::size_t b = a + 1; b < _cols; ++b)
            if (columnDot(a, b) != 0)
                return false;
    return true;
}

long
DesignMatrix::columnDot(std::size_t col_a, std::size_t col_b) const
{
    long total = 0;
    for (std::size_t r = 0; r < _rows; ++r)
        total += sign(r, col_a) * sign(r, col_b);
    return total;
}

bool
DesignMatrix::operator==(const DesignMatrix &other) const
{
    return _rows == other._rows && _cols == other._cols &&
           _data == other._data;
}

std::string
DesignMatrix::toString() const
{
    std::ostringstream os;
    for (std::size_t r = 0; r < _rows; ++r) {
        for (std::size_t c = 0; c < _cols; ++c) {
            if (c > 0)
                os << ' ';
            os << (sign(r, c) > 0 ? "+1" : "-1");
        }
        os << '\n';
    }
    return os.str();
}

} // namespace rigor::doe
