/**
 * @file
 * Distance metrics between benchmark fingerprint vectors.
 *
 * Section 4.2 of the paper measures benchmark similarity as the
 * Euclidean distance between the benchmarks' parameter-rank vectors.
 */

#ifndef RIGOR_CLUSTER_DISTANCE_HH
#define RIGOR_CLUSTER_DISTANCE_HH

#include <span>

namespace rigor::cluster
{

/** L2 distance — the paper's metric. */
double euclideanDistance(std::span<const double> x,
                         std::span<const double> y);

} // namespace rigor::cluster

#endif // RIGOR_CLUSTER_DISTANCE_HH
