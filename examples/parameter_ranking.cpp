/**
 * @file
 * Section 4.1 workflow on the real simulator: run the foldover PB
 * design over the full 43-factor parameter space for a couple of
 * workloads and print the Table-9-style ranking, the significance
 * cutoff, and the recommended next step.
 *
 * Scaled down (2 workloads, short runs) so it finishes in seconds;
 * bench/table09_12_answer runs the full 13-workload version.
 */

#include <cstdio>
#include <vector>

#include "doe/ranking.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/rank_table.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

int
main()
{
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip"),
        trace::workloadByName("mcf"),
    };

    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 30000;

    std::printf("Running the 88-configuration PB experiment on %zu "
                "workloads (%llu instructions each)...\n\n",
                workloads.size(),
                static_cast<unsigned long long>(
                    opts.instructionsPerRun));
    const methodology::PbExperimentResult result =
        methodology::runPbExperiment(workloads, opts);

    std::printf("%s\n",
                methodology::formatRankTable(result.summaries,
                                             result.benchmarks)
                    .c_str());

    const std::size_t cut =
        doe::significanceCutoff(result.summaries, 15);
    std::printf("Significant parameters (before the largest "
                "sum-of-ranks gap): %zu\n", cut);
    for (std::size_t i = 0; i < cut; ++i)
        std::printf("  %2zu. %s\n", i + 1,
                    result.summaries[i].name.c_str());

    std::printf("\nRecommended next step (paper section 4.1): choose "
                "values for these with care — e.g. run a full\n"
                "factorial ANOVA over them (see "
                "examples/sensitivity_anova) — and set the rest to "
                "reasonable commercial values.\n");
    return 0;
}
