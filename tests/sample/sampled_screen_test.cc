#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "exec/engine.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/rank_table.hh"
#include "trace/workloads.hh"

namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

namespace
{

/**
 * The PR's acceptance scenario: the sampled PB screen must reproduce
 * the full-run top-10 factor ranking at >= 5x fewer
 * detailed-simulated instructions, with every run's CPI CI half-width
 * within the configured target relative error.
 */
struct ScreenRun
{
    methodology::PbExperimentResult result;
    std::uint64_t detailedInstructions = 0;
    double maxRelativeError = 0.0;
    std::uint64_t sampledEvents = 0;
};

ScreenRun
runScreen(const std::vector<trace::WorkloadProfile> &workloads,
          bool sampled)
{
    methodology::PbExperimentOptions options;
    options.instructionsPerRun = 200000;
    if (sampled) {
        // 80 units of 250 instructions, 500 detailed per 2500
        // period: exactly 1/5 of the stream simulated in detail.
        // Many small units beat few large ones here — the synthetic
        // streams drift (working sets build up over the run), and a
        // dense unit schedule tracks the drift instead of aliasing
        // it into the between-unit variance.
        options.campaign.sampling.enabled = true;
        options.campaign.sampling.unitInstructions = 250;
        options.campaign.sampling.warmupInstructions = 250;
        options.campaign.sampling.intervalInstructions = 2500;
        options.campaign.sampling.targetRelativeError = 0.3;
    }

    exec::SimulationEngine engine(exec::EngineOptions{0, false});
    options.campaign.engine = &engine;

    // The engine calls the observer from its worker threads.
    ScreenRun run;
    std::mutex mutex;
    engine.setJobObserver([&run, &mutex](const exec::JobEvent &event) {
        if (!event.result.sample)
            return;
        const std::lock_guard<std::mutex> lock(mutex);
        ++run.sampledEvents;
        run.maxRelativeError = std::max(
            run.maxRelativeError, event.result.sample->relativeError);
    });

    const exec::ProgressSnapshot before =
        engine.progress().snapshot();
    run.result = methodology::runPbExperiment(workloads, options);
    const exec::ProgressSnapshot after =
        engine.progress().snapshot();
    run.detailedInstructions =
        after.simulatedInstructions - before.simulatedInstructions;
    return run;
}

} // namespace

TEST(SampledScreen, ReproducesTopTenAtFiveFoldFewerInstructions)
{
    // One compute-bound, one I-bound, one FP, one memory-heavy
    // profile: a small cross-section of the suite's behaviors.
    std::vector<trace::WorkloadProfile> workloads;
    for (const char *name : {"gzip", "gcc", "mesa", "art"})
        workloads.push_back(trace::workloadByName(name));

    const ScreenRun full = runScreen(workloads, false);
    const ScreenRun sampled = runScreen(workloads, true);

    // The sampled screen really sampled: one summary per run, and
    // every run's CI is within the configured target.
    EXPECT_EQ(full.sampledEvents, 0u);
    EXPECT_EQ(sampled.sampledEvents,
              workloads.size() * sampled.result.design.numRows());
    EXPECT_LE(sampled.maxRelativeError, 0.3);

    // >= 5x fewer detailed-simulated instructions.
    ASSERT_GT(sampled.detailedInstructions, 0u);
    const double ratio =
        static_cast<double>(full.detailedInstructions) /
        static_cast<double>(sampled.detailedInstructions);
    EXPECT_GE(ratio, 5.0);

    // The top-10 significant-factor set of the full screen survives
    // the sampling.
    const std::vector<std::string> full_top =
        methodology::topFactorNames(full.result.summaries, 10);
    const std::vector<std::string> sampled_top =
        methodology::topFactorNames(sampled.result.summaries, 10);
    const std::set<std::string> full_set(full_top.begin(),
                                         full_top.end());
    const std::set<std::string> sampled_set(sampled_top.begin(),
                                            sampled_top.end());
    EXPECT_EQ(full_set, sampled_set);

    // And the single most significant factor is the same one.
    ASSERT_FALSE(full_top.empty());
    ASSERT_FALSE(sampled_top.empty());
    EXPECT_EQ(full_top.front(), sampled_top.front());
}
