#include "cluster/distance_matrix.hh"

#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace rigor::cluster
{

DistanceMatrix::DistanceMatrix(std::size_t n)
    : _n(n), _lower(n * (n - 1) / 2, 0.0)
{
    if (n == 0)
        throw std::invalid_argument("DistanceMatrix: size must be > 0");
}

DistanceMatrix
DistanceMatrix::fromPoints(const std::vector<std::vector<double>> &points)
{
    DistanceMatrix m(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        for (std::size_t j = i + 1; j < points.size(); ++j)
            m.set(i, j, euclideanDistance(points[i], points[j]));
    return m;
}

std::size_t
DistanceMatrix::index(std::size_t i, std::size_t j) const
{
    if (i >= _n || j >= _n || i == j)
        throw std::out_of_range("DistanceMatrix: bad index pair");
    if (i < j)
        std::swap(i, j);
    // Strict lower triangle, row-major: (i, j) with j < i.
    return i * (i - 1) / 2 + j;
}

double
DistanceMatrix::at(std::size_t i, std::size_t j) const
{
    if (i == j) {
        if (i >= _n)
            throw std::out_of_range("DistanceMatrix: bad index");
        return 0.0;
    }
    return _lower[index(i, j)];
}

void
DistanceMatrix::set(std::size_t i, std::size_t j, double d)
{
    if (d < 0.0)
        throw std::invalid_argument(
            "DistanceMatrix: distances must be non-negative");
    _lower[index(i, j)] = d;
}

std::vector<std::pair<std::size_t, std::size_t>>
DistanceMatrix::pairsBelow(double threshold) const
{
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t i = 0; i < _n; ++i)
        for (std::size_t j = i + 1; j < _n; ++j)
            if (at(i, j) < threshold)
                pairs.emplace_back(i, j);
    return pairs;
}

std::string
DistanceMatrix::toString(const std::vector<std::string> &labels) const
{
    if (labels.size() != _n)
        throw std::invalid_argument(
            "DistanceMatrix::toString: need one label per item");

    std::size_t width = 7;
    for (const std::string &l : labels)
        width = std::max(width, l.size() + 2);

    std::ostringstream os;
    os << std::setw(static_cast<int>(width)) << "";
    for (const std::string &l : labels)
        os << std::setw(static_cast<int>(width)) << l;
    os << '\n';
    for (std::size_t i = 0; i < _n; ++i) {
        os << std::setw(static_cast<int>(width)) << labels[i];
        for (std::size_t j = 0; j < _n; ++j)
            os << std::setw(static_cast<int>(width)) << std::fixed
               << std::setprecision(1) << at(i, j);
        os << '\n';
    }
    return os.str();
}

} // namespace rigor::cluster
