/**
 * @file
 * Threshold-based similarity grouping (the paper's Table 11).
 *
 * The paper defines two benchmarks as similar when their rank-vector
 * distance falls below a user-chosen threshold (sqrt(4000) ~ 63.2 in
 * the worked example) and groups them accordingly: the groups are
 * the connected components of the "similar" graph (transitive
 * closure), which is what reproduces Table 11.
 */

#ifndef RIGOR_CLUSTER_THRESHOLD_GROUPING_HH
#define RIGOR_CLUSTER_THRESHOLD_GROUPING_HH

#include <vector>

#include "cluster/distance_matrix.hh"

namespace rigor::cluster
{

/** Groups as lists of item indices; each item appears exactly once. */
using Groups = std::vector<std::vector<std::size_t>>;

/**
 * Connected components of the graph with an edge wherever distance <
 * @p threshold. Components are ordered by smallest member; members
 * are sorted.
 */
Groups groupByThresholdComponents(const DistanceMatrix &distances,
                                  double threshold);

} // namespace rigor::cluster

#endif // RIGOR_CLUSTER_THRESHOLD_GROUPING_HH
