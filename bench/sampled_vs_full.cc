/**
 * @file
 * Sampled-vs-full campaign comparison.
 *
 * Runs the same reduced PB screen twice — once with full detailed
 * simulation, once under the SMARTS-style systematic sampling
 * schedule — and prints the detailed-instruction speed-up, the
 * wall-clock MIPS of both, the sampling-error envelope and the
 * top-10 factor overlap. The CI perf-smoke job checks the same
 * figures from two `tools/campaign --manifest-out` runs with this
 * schedule.
 *
 * The workload list and stream length are deliberately small so the
 * job stays CI-scale; override with RIGOR_INSTRUCTIONS to rerun at
 * laptop scale.
 */

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <vector>

#include "bench_common.hh"
#include "exec/engine.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/rank_table.hh"
#include "trace/workloads.hh"

namespace
{

namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

struct ScreenStats
{
    methodology::PbExperimentResult result;
    double wallSeconds = 0.0;
    std::uint64_t detailedInstructions = 0;
    double relErrorSum = 0.0;
    std::uint64_t unitSum = 0;
    std::uint64_t sampledRuns = 0;
};

ScreenStats
runScreen(const std::vector<trace::WorkloadProfile> &workloads,
          bool sampled)
{
    methodology::PbExperimentOptions options;
    options.instructionsPerRun = rigor::bench::instructionsPerRun();
    if (sampled) {
        // The acceptance schedule: dense small units at an exact 1/5
        // detail fraction (see tests/sample/sampled_screen_test.cc).
        options.campaign.sampling.enabled = true;
        options.campaign.sampling.unitInstructions = 250;
        options.campaign.sampling.warmupInstructions = 250;
        options.campaign.sampling.intervalInstructions = 2500;
    }

    // A private engine per screen: the run cache must not leak
    // detailed-instruction counts between the two variants.
    exec::SimulationEngine engine(exec::EngineOptions{0, false});
    options.campaign.engine = &engine;

    ScreenStats stats;
    std::mutex mutex;
    engine.setJobObserver([&stats, &mutex](const exec::JobEvent &e) {
        if (!e.result.sample)
            return;
        const std::lock_guard<std::mutex> lock(mutex);
        ++stats.sampledRuns;
        stats.relErrorSum += e.result.sample->relativeError;
        stats.unitSum += e.result.sample->units;
    });

    stats.result = methodology::runPbExperiment(workloads, options);
    const exec::ProgressSnapshot progress = engine.progress().snapshot();
    stats.wallSeconds = progress.wallSeconds;
    stats.detailedInstructions = progress.simulatedInstructions;
    return stats;
}

double
mips(const ScreenStats &stats)
{
    return stats.wallSeconds > 0.0
               ? static_cast<double>(stats.detailedInstructions) /
                     stats.wallSeconds / 1e6
               : 0.0;
}

} // namespace

int
main()
{
    // The acceptance test's quartet: compute-bound, I-bound, FP, and
    // memory-heavy profiles.
    std::vector<trace::WorkloadProfile> workloads;
    for (const char *name : {"gzip", "gcc", "mesa", "art"})
        workloads.push_back(trace::workloadByName(name));

    std::fprintf(stderr, "[bench] full screen...\n");
    const ScreenStats full = runScreen(workloads, false);
    std::fprintf(stderr, "[bench] sampled screen...\n");
    const ScreenStats sampled = runScreen(workloads, true);

    const double ratio =
        sampled.detailedInstructions > 0
            ? static_cast<double>(full.detailedInstructions) /
                  static_cast<double>(sampled.detailedInstructions)
            : 0.0;
    const double mean_rel_error =
        sampled.sampledRuns > 0
            ? sampled.relErrorSum /
                  static_cast<double>(sampled.sampledRuns)
            : 0.0;
    const double mean_units =
        sampled.sampledRuns > 0
            ? static_cast<double>(sampled.unitSum) /
                  static_cast<double>(sampled.sampledRuns)
            : 0.0;

    const std::vector<std::string> full_top =
        methodology::topFactorNames(full.result.summaries, 10);
    const std::vector<std::string> sampled_top =
        methodology::topFactorNames(sampled.result.summaries, 10);
    std::size_t overlap = 0;
    for (const std::string &name : sampled_top)
        if (std::find(full_top.begin(), full_top.end(), name) !=
            full_top.end())
            ++overlap;

    std::printf("Sampled vs full PB screen (%zu workloads, %llu "
                "instructions per run)\n",
                workloads.size(),
                static_cast<unsigned long long>(
                    rigor::bench::instructionsPerRun()));
    std::printf("  full:    %10llu detailed instructions, %6.2f s, "
                "%7.2f MIPS\n",
                static_cast<unsigned long long>(
                    full.detailedInstructions),
                full.wallSeconds, mips(full));
    std::printf("  sampled: %10llu detailed instructions, %6.2f s, "
                "%7.2f MIPS\n",
                static_cast<unsigned long long>(
                    sampled.detailedInstructions),
                sampled.wallSeconds, mips(sampled));
    std::printf("  detailed-instruction ratio: %.2fx\n", ratio);
    std::printf("  mean CPI relative error:    %.4f over %.1f "
                "units/run\n",
                mean_rel_error, mean_units);
    std::printf("  top-10 factor overlap:      %zu/10\n", overlap);
    return 0;
}
