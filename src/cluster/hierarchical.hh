/**
 * @file
 * Agglomerative hierarchical clustering.
 *
 * An extension beyond the paper's single-threshold grouping: building
 * the full merge tree lets an experimenter inspect how benchmark
 * groups evolve as the similarity threshold varies, instead of
 * committing to one arbitrary cutoff.
 */

#ifndef RIGOR_CLUSTER_HIERARCHICAL_HH
#define RIGOR_CLUSTER_HIERARCHICAL_HH

#include <string>
#include <vector>

#include "cluster/distance_matrix.hh"
#include "cluster/threshold_grouping.hh"

namespace rigor::cluster
{

/** One merge step in the dendrogram. */
struct MergeStep
{
    /** Cluster ids merged. Ids 0..n-1 are leaves; n+k is the cluster
     *  created by merge step k. */
    std::size_t left = 0;
    std::size_t right = 0;
    /** Single-linkage distance at which the merge happened. */
    double distance = 0.0;
    /** Number of leaves in the merged cluster. */
    std::size_t size = 0;
};

/** Result of a full agglomeration: n - 1 merge steps. */
class Dendrogram
{
  public:
    Dendrogram(std::size_t num_leaves, std::vector<MergeStep> steps);

    std::size_t numLeaves() const { return _numLeaves; }
    const std::vector<MergeStep> &steps() const { return _steps; }

    /**
     * Cut the tree at @p height: clusters are the components formed by
     * merges with distance < height.
     */
    Groups cut(double height) const;

    /** ASCII rendering of the merge sequence for reports. */
    std::string toString(const std::vector<std::string> &labels) const;

  private:
    std::size_t _numLeaves;
    std::vector<MergeStep> _steps;
};

/**
 * Run single-linkage agglomerative clustering over a distance matrix:
 * the distance between two clusters is their closest pair of leaves,
 * so cutting at a height h reproduces the connected components of
 * groupByThresholdComponents(distances, h).
 *
 * O(n^3) naive implementation — benchmark suites are tens of items,
 * so clarity wins over an O(n^2 log n) scheme.
 */
Dendrogram agglomerate(const DistanceMatrix &distances);

} // namespace rigor::cluster

#endif // RIGOR_CLUSTER_HIERARCHICAL_HH
