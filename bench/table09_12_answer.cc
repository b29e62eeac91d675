/**
 * @file
 * Regenerates Tables 9-12 from one paired campaign: the foldover PB
 * screen of all 13 workloads on the base processor (Tables 9-11) and
 * with a 128-entry instruction precomputation table (Table 12).
 * Tables 10 and 11 are first recomputed from the published Table 9
 * ranks; RIGOR_MEASURED=0 prints only those and simulates nothing.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "cluster/hierarchical.hh"
#include "doe/ranking.hh"
#include "enhance/precompute.hh"
#include "methodology/classification.hh"
#include "methodology/enhancement_analysis.hh"
#include "methodology/published_data.hh"
#include "methodology/rank_table.hh"
#include "stats/correlation.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace
{

namespace cluster = rigor::cluster;
namespace doe = rigor::doe;
namespace enhance = rigor::enhance;
namespace methodology = rigor::methodology;
namespace stats = rigor::stats;
namespace trace = rigor::trace;

/** Run the base and precompute legs as one paired campaign. */
methodology::EnhancementExperimentResult
runAnswer()
{
    const std::uint64_t instructions = rigor::bench::instructionsPerRun();

    // Profile one 128-entry precomputation table per workload — the
    // "compiler pass" — then copy it into every run's hook.
    std::fprintf(stderr, "[bench] profiling precomputation tables...\n");
    std::map<std::string, enhance::PrecomputationTable> tables;
    for (const trace::WorkloadProfile &p : trace::spec2000Workloads()) {
        enhance::PrecomputationTable table(128);
        trace::SyntheticTraceGenerator gen(p, instructions);
        table.profileTrace(gen);
        std::fprintf(stderr, "  %-10s %zu tuples\n", p.name.c_str(),
                     table.size());
        tables.emplace(p.name, std::move(table));
    }

    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = instructions;
    // A full-length warm-up lets the sequential/strided sweeps cover
    // cache-resident working sets before measurement begins.
    opts.warmupInstructions = instructions;
    std::fprintf(stderr,
                 "[bench] running 88 configs x 13 workloads, base and "
                 "precompute legs, at %llu instructions per run...\n",
                 static_cast<unsigned long long>(instructions));
    methodology::EnhancementExperimentResult paired =
        methodology::runEnhancementExperiment(
            trace::spec2000Workloads(), opts,
            [&](const trace::WorkloadProfile &p)
                -> std::unique_ptr<rigor::sim::ExecutionHook> {
                return std::make_unique<enhance::PrecomputationTable>(
                    tables.at(p.name));
            },
            "precompute-128");
    std::fprintf(stderr, "[bench] base + enhanced legs done: %s\n",
                 paired.execution.toString().c_str());
    return paired;
}

void
printTable9(const methodology::PbExperimentResult &base)
{
    std::printf("Table 9: Plackett and Burman Design Results for All "
                "Processor Parameters;\nRanked by Significance and "
                "Sorted by the Sum of Ranks (measured)\n\n");
    std::printf("%s\n", methodology::formatRankTable(base.summaries,
                                                     base.benchmarks)
                            .c_str());

    std::printf("Significance cutoff (largest sum-of-ranks gap in the "
                "first 15): after %zu parameters\n",
                doe::significanceCutoff(base.summaries, 15));

    // Shape comparison vs the published table.
    const methodology::PublishedRankTable &published =
        methodology::publishedTable9();
    const std::vector<double> ours = methodology::sumOfRanksInOrder(
        base.summaries, published.factors);
    const std::vector<double> theirs(published.sums.begin(),
                                     published.sums.end());
    std::printf("\nSpearman rank correlation of factor ordering vs "
                "published Table 9: %.3f\n",
                stats::spearmanCorrelation(ours, theirs));

    std::printf("Positions (published Table 9 rank in parentheses):\n");
    for (const auto &[name, paper] :
         {std::pair{"Reorder Buffer Entries", 1},
          {"L2 Cache Latency", 2},
          {"Dummy Factor #1", 43},
          {"Dummy Factor #2", 37}}) {
        std::size_t pos = 0;
        for (std::size_t i = 0; i < base.summaries.size(); ++i)
            if (base.summaries[i].name == name)
                pos = i + 1;
        std::printf("  %-24s%zu (%d)\n", (std::string(name) + ":").c_str(),
                    pos, paper);
    }
}

/**
 * Tables 10 and 11, read from one classification of the published
 * Table 9 ranks and, when @p base is set, one of the measured ranks.
 */
void
printTables10And11(const methodology::PbExperimentResult *base)
{
    const double threshold = methodology::defaultSimilarityThreshold();
    const methodology::PublishedRankTable &t9 =
        methodology::publishedTable9();
    const methodology::ClassificationResult published =
        methodology::classifyBenchmarks(t9.benchmarks,
                                        t9.rankVectorsByBenchmark(),
                                        threshold);
    const methodology::ClassificationResult measured =
        base ? methodology::classifyBenchmarks(
                   base->benchmarks, base->rankVectors(), threshold)
             : methodology::ClassificationResult{};
    const char *skipped = "(measured-mode skipped: RIGOR_MEASURED=0)\n";

    std::printf("Table 10: Distance Between Benchmark Vectors, Based "
                "on Parameter Ranks\n(recomputed from the published "
                "Table 9 rank vectors)\n\n");
    std::printf("%s\n",
                published.distances.toString(t9.benchmarks).c_str());
    double worst = 0.0;
    for (std::size_t i = 0; i < published.distances.size(); ++i)
        for (std::size_t j = i + 1; j < published.distances.size(); ++j)
            worst = std::max(
                worst, std::abs(published.distances.at(i, j) -
                                methodology::publishedTable10().at(i, j)));
    std::printf("[check] max |recomputed - published| = %.2f "
                "(print precision is 0.1)\n",
                worst);
    std::printf("[check] gzip vs vpr-Place: %.1f (paper: 89.8, "
                "sqrt(8058))\n\n",
                published.distances.at(0, 1));
    if (base)
        std::printf("Measured distance matrix (this repo's simulator "
                    "and synthetic workloads):\n\n%s",
                    measured.distances.toString(base->benchmarks).c_str());
    else
        std::printf("%s", skipped);

    std::printf("Table 11: Benchmarks Grouped by Their Effect on the "
                "Processor (threshold %.1f = sqrt(%.0f))\n\n",
                threshold, methodology::kSimilarityThresholdSquared);
    std::printf("From the published Table 9 ranks:\n%s\n",
                published.groupsToString().c_str());
    std::printf("[check] matches the paper's Table 11 exactly: %s\n\n",
                published.groups == methodology::publishedTable11Groups()
                    ? "yes"
                    : "NO");
    // Extension: the full dendrogram, showing how the groups evolve
    // as the threshold varies instead of committing to one cutoff.
    std::printf("Single-linkage merge sequence (distance, cluster):\n%s"
                "\n",
                cluster::agglomerate(published.distances)
                    .toString(t9.benchmarks)
                    .c_str());
    if (base)
        std::printf("Measured grouping (this repo's simulator):\n%s",
                    measured.groupsToString().c_str());
    else
        std::printf("%s", skipped);
}

void
printTable12(const methodology::EnhancementExperimentResult &paired)
{
    const methodology::PbExperimentResult &base = paired.base;
    const methodology::PbExperimentResult &enhanced = paired.enhanced;
    std::printf("Table 12: PB Design Results with Instruction "
                "Precomputation (measured)\n\n%s\n",
                methodology::formatRankTable(enhanced.summaries,
                                             enhanced.benchmarks)
                    .c_str());

    const methodology::EnhancementComparison &cmp = paired.comparison;
    std::printf("Before/after sum-of-ranks shifts (sorted by "
                "|delta|):\n%s\n",
                cmp.toString(15).c_str());

    const methodology::RankShift relief =
        cmp.biggestReliefAmongTop(base.summaries, 10);
    std::printf("[check] biggest relief among the 10 most significant "
                "base parameters: %s (delta %+ld)\n",
                relief.name.c_str(), relief.delta());
    std::printf("        paper's result: Int ALUs (118 -> 137, "
                "delta +19)\n");

    // Top-10 set stability, the paper's other conclusion.
    const std::vector<std::string> top_base =
        methodology::topFactorNames(base.summaries, 10);
    const std::vector<std::string> top_enhanced =
        methodology::topFactorNames(enhanced.summaries, 10);
    std::printf("[check] top-10 significant-parameter set unchanged "
                "by the enhancement: %s\n",
                std::is_permutation(top_base.begin(), top_base.end(),
                                    top_enhanced.begin(),
                                    top_enhanced.end())
                    ? "yes"
                    : "no");
}

} // namespace

int
main()
{
    if (const char *measured = std::getenv("RIGOR_MEASURED");
        measured && std::string(measured) == "0") {
        printTables10And11(nullptr);
        return 0;
    }
    const methodology::EnhancementExperimentResult paired = runAnswer();
    printTable9(paired.base);
    printTables10And11(&paired.base);
    printTable12(paired);
    return 0;
}
