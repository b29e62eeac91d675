/**
 * @file
 * The paper's complete four-step recommendation (section 4.1) in one
 * call: PB screen -> critical set -> full factorial ANOVA over the
 * critical parameters -> per-parameter directions.
 *
 * Scaled down to two workloads and short runs so it finishes in
 * seconds; pass more workloads (trace::spec2000Workloads()) for the
 * full study.
 */

#include <cstdio>
#include <vector>

#include "methodology/workflow.hh"
#include "trace/workloads.hh"

namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

int
main()
{
    methodology::WorkflowOptions opts;
    opts.base.instructionsPerRun = 25000;
    opts.base.warmupInstructions = 25000;
    opts.maxCriticalParameters = 3;

    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip"),
        trace::workloadByName("mcf"),
    };

    std::printf("Running the recommended workflow on %zu workloads "
                "(PB screen: 88 configs each; then a 2^k factorial "
                "over the critical set)...\n\n",
                workloads.size());

    const methodology::WorkflowResult result =
        methodology::runRecommendedWorkflow(workloads, opts);
    std::printf("%s", result.toString().c_str());

    std::printf("\nThe screen cost %zu simulations per workload; a "
                "full factorial over all 43 factors would have cost "
                "2^43 ~ 8.8e12.\n",
                result.screening.design.numRows());
    std::printf("Execution engine: %s\n",
                result.execution.toString().c_str());
    return 0;
}
