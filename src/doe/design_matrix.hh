/**
 * @file
 * Two-level experimental design matrix.
 *
 * A design matrix has one row per experiment configuration and one
 * column per factor; every entry is +1 (factor at its high level) or
 * -1 (factor at its low level), exactly as in Tables 2-4 of the paper.
 */

#ifndef RIGOR_DOE_DESIGN_MATRIX_HH
#define RIGOR_DOE_DESIGN_MATRIX_HH

#include <cstdint>
#include <string>
#include <vector>

namespace rigor::doe
{

/** Signed unit level of a factor in one configuration. */
enum class Level : std::int8_t
{
    Low = -1,
    High = +1,
};

/** Numeric value (+1 / -1) of a Level. */
inline int
levelValue(Level l)
{
    return static_cast<int>(l);
}

/** The opposite level (used by foldover). */
inline Level
flip(Level l)
{
    return l == Level::High ? Level::Low : Level::High;
}

/**
 * Dense row-major matrix of factor levels.
 *
 * Invariants: all rows have the same number of columns; both
 * dimensions are non-zero once constructed.
 */
class DesignMatrix
{
  public:
    /** Construct a rows x cols matrix, initially all Low. */
    DesignMatrix(std::size_t rows, std::size_t cols);

    /** Construct from explicit +1/-1 integer rows. */
    static DesignMatrix
    fromSigns(const std::vector<std::vector<int>> &signs);

    std::size_t numRows() const { return _rows; }
    std::size_t numColumns() const { return _cols; }

    Level at(std::size_t row, std::size_t col) const;
    void set(std::size_t row, std::size_t col, Level level);

    /** Sign (+1/-1) at (row, col), convenient for arithmetic. */
    int sign(std::size_t row, std::size_t col) const;

    /** One row as a vector of levels (an experiment configuration). */
    std::vector<Level> row(std::size_t row) const;

    /**
     * True when every column has an equal number of high and low
     * entries. Balanced columns give every factor the same precision.
     */
    bool isBalanced() const;

    /**
     * True when every pair of distinct columns is orthogonal (their
     * sign dot-product is zero). Orthogonality is what lets a
     * fractional design estimate each main effect free of
     * contamination from the other main effects.
     */
    bool isOrthogonal() const;

    /** Dot product of two columns' sign vectors. */
    long columnDot(std::size_t col_a, std::size_t col_b) const;

    /** Equality of dimensions and every entry. */
    bool operator==(const DesignMatrix &other) const;

    /**
     * Render as a +1/-1 grid, matching the presentation of the
     * paper's Tables 2 and 3.
     */
    std::string toString() const;

  private:
    std::size_t _rows;
    std::size_t _cols;
    std::vector<std::int8_t> _data;

    std::size_t index(std::size_t row, std::size_t col) const;
};

} // namespace rigor::doe

#endif // RIGOR_DOE_DESIGN_MATRIX_HH
