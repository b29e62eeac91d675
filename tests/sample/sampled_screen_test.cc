#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "exec/engine.hh"
#include "exec/journal.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/rank_stability.hh"
#include "methodology/rank_table.hh"
#include "obs/json.hh"
#include "trace/workloads.hh"

namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace obs = rigor::obs;
namespace trace = rigor::trace;

namespace
{

/**
 * The PR's acceptance scenario: the sampled PB screen must reproduce
 * the full-run top-10 factor ranking at >= 5x fewer
 * detailed-simulated instructions, with every run's CPI CI half-width
 * within 30% of its mean CPI.
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
    // every run's CI half-width is within 30% of its mean CPI.
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

namespace
{

/** FNV-1a over the exact bit patterns of @p columns, in order. */
std::uint64_t
bitsDigest(const std::vector<std::vector<double>> &columns)
{
    std::string bytes;
    for (const std::vector<double> &column : columns)
        bytes.append(reinterpret_cast<const char *>(column.data()),
                     column.size() * sizeof(double));
    return obs::fnv1a(bytes);
}

} // namespace

TEST(SampledScreen, JournalResponsesAndStabilityArePinned)
{
    // A sampled campaign's persisted and reported bytes, exactly: the
    // journal a one-thread gzip+mcf screen writes (one thread fixes
    // the record order), its responses and CI half-widths, and the
    // stability report of three replicates of the same screen.
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip"), trace::workloadByName("mcf")};
    methodology::PbExperimentOptions options;
    options.instructionsPerRun = 20000;
    options.campaign.threads = 1;
    options.campaign.sampling.enabled = true;
    options.campaign.sampling.unitInstructions = 250;
    options.campaign.sampling.warmupInstructions = 250;
    options.campaign.sampling.intervalInstructions = 2500;

    const std::string path =
        std::string(::testing::TempDir()) + "sampled_screen_pin";
    std::remove(path.c_str());
    methodology::PbExperimentResult result;
    {
        exec::ResultJournal journal(path);
        options.campaign.journal = &journal;
        result = methodology::runPbExperiment(workloads, options);
        options.campaign.journal = nullptr;
    }
    std::ifstream in(path, std::ios::binary);
    const std::string journal_bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    std::remove(path.c_str());

    ASSERT_EQ(result.responses.size(), 2u);
    ASSERT_EQ(result.responses[0].size(), 88u);
    const std::uint64_t journal_digest = obs::fnv1a(journal_bytes);
    EXPECT_EQ(journal_digest, 0x377e22eeceac92f4ull)
        << "journal drifted; actual digest 0x"
        << obs::digestHex(journal_digest) << "ull";
    const std::uint64_t response_digest = bitsDigest(result.responses);
    EXPECT_EQ(response_digest, 0x7a7bffd3141cd5f2ull)
        << "responses drifted; actual digest 0x"
        << obs::digestHex(response_digest) << "ull";
    const std::uint64_t half_width_digest =
        bitsDigest(result.ciHalfWidths);
    EXPECT_EQ(half_width_digest, 0x1df671871c369d5aull)
        << "CI half-widths drifted; actual digest 0x"
        << obs::digestHex(half_width_digest) << "ull";

    methodology::RankStabilityOptions replicated;
    replicated.base = options;
    replicated.base.campaign.threads = 2;
    replicated.replication.replicates = 3;
    replicated.replication.bootstrap.iterations = 200;
    // Two benchmarks leave mid-table orders inside noise; the pin is
    // the report, so no flip may fail the run. The pre-flight, with
    // its replicate floor, still runs.
    replicated.check.flipThreshold = 1.0;
    const std::uint64_t report_digest = obs::fnv1a(
        methodology::runReplicatedPbExperiment(workloads, replicated)
            .stability.toJson());
    EXPECT_EQ(report_digest, 0x882505f20a3d8db7ull)
        << "stability report drifted; actual digest 0x"
        << obs::digestHex(report_digest) << "ull";
}
