/**
 * @file
 * Symmetric pairwise distance matrix (the paper's Table 10).
 */

#ifndef RIGOR_CLUSTER_DISTANCE_MATRIX_HH
#define RIGOR_CLUSTER_DISTANCE_MATRIX_HH

#include <string>
#include <vector>

#include "cluster/distance.hh"

namespace rigor::cluster
{

/**
 * Symmetric n x n matrix of pairwise distances with a zero diagonal.
 * Stores the strict lower triangle.
 */
class DistanceMatrix
{
  public:
    /** An n x n matrix of zeros. */
    explicit DistanceMatrix(std::size_t n);

    /**
     * All pairwise Euclidean distances between the given points, the
     * paper's metric.
     *
     * @param points one vector per item (all of equal length)
     */
    static DistanceMatrix
    fromPoints(const std::vector<std::vector<double>> &points);

    std::size_t size() const { return _n; }

    double at(std::size_t i, std::size_t j) const;
    void set(std::size_t i, std::size_t j, double d);

    /** All pairs (i, j), i < j, with distance below @p threshold. */
    std::vector<std::pair<std::size_t, std::size_t>>
    pairsBelow(double threshold) const;

    /**
     * Render as a table with row/column labels, one decimal place —
     * the presentation of the paper's Table 10.
     */
    std::string toString(const std::vector<std::string> &labels) const;

  private:
    std::size_t _n;
    std::vector<double> _lower;

    std::size_t index(std::size_t i, std::size_t j) const;
};

} // namespace rigor::cluster

#endif // RIGOR_CLUSTER_DISTANCE_MATRIX_HH
