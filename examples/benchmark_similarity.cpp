/**
 * @file
 * Section 4.2 workflow: classify benchmarks by their effect on the
 * processor. Uses the paper's published Table 9 rank vectors, so it
 * runs instantly and reproduces Tables 10 and 11 exactly; swap in a
 * PbExperimentResult::rankVectors() to classify your own workloads.
 */

#include <cstdio>

#include "cluster/hierarchical.hh"
#include "methodology/classification.hh"
#include "methodology/published_data.hh"

namespace cluster = rigor::cluster;
namespace methodology = rigor::methodology;

int
main()
{
    const methodology::PublishedRankTable &t9 =
        methodology::publishedTable9();

    // Distances between the 43-dimensional rank vectors (Table 10).
    const methodology::ClassificationResult result =
        methodology::classifyBenchmarks(
            t9.benchmarks, t9.rankVectorsByBenchmark(),
            methodology::defaultSimilarityThreshold());

    std::printf("Pairwise distances (Table 10):\n%s\n",
                result.distances.toString(t9.benchmarks).c_str());

    std::printf("Groups at threshold %.1f (Table 11):\n%s\n",
                result.threshold,
                result.groupsToString().c_str());

    // Beyond the paper: how the grouping depends on the threshold.
    const cluster::Dendrogram dendro =
        cluster::agglomerate(result.distances);
    std::printf("Merge tree (single linkage) — pick any cutoff:\n%s\n",
                dendro.toString(t9.benchmarks).c_str());

    std::printf("A representative subset: keep one benchmark per "
                "group -> %zu simulations instead of 13.\n",
                result.groups.size());
    for (const auto &group : result.groups)
        std::printf("  use %-10s (covers: %zu)\n",
                    group.front().c_str(), group.size());
    return 0;
}
