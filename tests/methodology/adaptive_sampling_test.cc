#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "check/rule_ids.hh"
#include "exec/engine.hh"
#include "exec/journal.hh"
#include "exec/proc/worker_pool.hh"
#include "methodology/adaptive_sampling.hh"
#include "methodology/rank_table.hh"
#include "obs/trace_span.hh"
#include "trace/workloads.hh"

namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace obs = rigor::obs;
namespace trace = rigor::trace;

namespace
{

std::vector<trace::WorkloadProfile>
twoWorkloads()
{
    return {trace::workloadByName("gzip"),
            trace::workloadByName("mcf")};
}

/**
 * A coarse sampled screen (four units per run) with a generous
 * ambiguity threshold, so round 0 leaves ambiguous pairs and the loop
 * runs its one refinement round.
 */
methodology::AdaptiveSamplingOptions
twoRoundOptions(unsigned threads)
{
    methodology::AdaptiveSamplingOptions options;
    options.maxRounds = 2;
    options.ambiguityFactor = 4.0;
    options.base.instructionsPerRun = 20000;
    options.base.campaign.threads = threads;
    exec::CampaignOptions &campaign = options.base.campaign;
    campaign.sampling.enabled = true;
    campaign.sampling.unitInstructions = 250;
    campaign.sampling.warmupInstructions = 250;
    campaign.sampling.intervalInstructions = 5000;
    return options;
}

/** Everything the adaptive loop decided, in comparable form. */
struct Outcome
{
    std::string rankTable;
    std::vector<std::vector<double>> responses;
    std::vector<std::vector<double>> ciHalfWidths;
    std::vector<std::uint64_t> intervals;
    std::vector<std::vector<std::string>> simulated;
    std::vector<std::size_t> ambiguous;
    bool converged = false;
};

Outcome
outcomeOf(const methodology::AdaptiveSamplingResult &run)
{
    Outcome out;
    out.rankTable = methodology::formatRankTable(
        run.result.summaries, run.result.benchmarks);
    out.responses = run.result.responses;
    out.ciHalfWidths = run.result.ciHalfWidths;
    for (const methodology::AdaptiveRound &round : run.rounds) {
        out.intervals.push_back(round.sampling.intervalInstructions);
        out.simulated.push_back(round.simulatedBenchmarks);
        out.ambiguous.push_back(round.ambiguousPairs);
    }
    out.converged = run.converged;
    return out;
}

void
expectSameOutcome(const Outcome &a, const Outcome &b)
{
    EXPECT_EQ(a.rankTable, b.rankTable);
    EXPECT_EQ(a.responses, b.responses);
    EXPECT_EQ(a.ciHalfWidths, b.ciHalfWidths);
    EXPECT_EQ(a.intervals, b.intervals);
    EXPECT_EQ(a.simulated, b.simulated);
    EXPECT_EQ(a.ambiguous, b.ambiguous);
    EXPECT_EQ(a.converged, b.converged);
}

} // namespace

TEST(AdaptiveSampling, RoundsAgreeAcrossThreadCountsAndIsolation)
{
    const auto workloads = twoWorkloads();

    const methodology::AdaptiveSamplingResult one =
        methodology::runAdaptivePbExperiment(workloads,
                                             twoRoundOptions(1));
    ASSERT_EQ(one.rounds.size(), 2u)
        << "the fixture must exercise a refinement round";
    EXPECT_EQ(one.rounds[1].sampling.intervalInstructions, 2500u);
    EXPECT_FALSE(one.rounds[1].simulatedBenchmarks.empty());
    const Outcome reference = outcomeOf(one);

    expectSameOutcome(
        outcomeOf(methodology::runAdaptivePbExperiment(
            workloads, twoRoundOptions(2))),
        reference);

    exec::proc::ProcWorkerPool::Options pool_opts;
    pool_opts.workers = 2;
    exec::proc::ProcWorkerPool pool(std::move(pool_opts));
    exec::SimulationEngine engine(
        exec::EngineOptions{2, true, pool.simulateFn()});
    methodology::AdaptiveSamplingOptions sandboxed = twoRoundOptions(2);
    sandboxed.base.campaign.engine = &engine;
    expectSameOutcome(
        outcomeOf(methodology::runAdaptivePbExperiment(workloads,
                                                       sandboxed)),
        reference);
}

TEST(AdaptiveSampling, ProcessIsolationForksOnePoolForEveryRound)
{
    // Each sandbox worker's lifetime closes as one "proc.worker"
    // span when its pool goes away: every round runs on the caller's
    // two workers, and the driver forks none of its own.
    obs::TraceWriter trace;
    {
        exec::proc::ProcWorkerPool::Options pool_opts;
        pool_opts.workers = 2;
        exec::proc::ProcWorkerPool pool(std::move(pool_opts));
        pool.setTraceWriter(&trace);
        exec::SimulationEngine engine(
            exec::EngineOptions{2, true, pool.simulateFn()});
        methodology::AdaptiveSamplingOptions options =
            twoRoundOptions(2);
        options.base.campaign.engine = &engine;
        options.base.campaign.trace = &trace;
        const methodology::AdaptiveSamplingResult run =
            methodology::runAdaptivePbExperiment(twoWorkloads(),
                                                 options);
        ASSERT_EQ(run.rounds.size(), 2u);
    }

    const std::string json = trace.toJson();
    const std::string span = "\"name\":\"proc.worker\"";
    std::size_t spans = 0;
    for (std::size_t at = json.find(span); at != std::string::npos;
         at = json.find(span, at + 1))
        ++spans;
    EXPECT_EQ(spans, 2u);
}

TEST(AdaptiveSampling, OutcomeIsPinned)
{
    // The two-round fixture's decisions, exactly: the final rank
    // table, the ambiguity left after each round and who was refined.
    const methodology::AdaptiveSamplingResult run =
        methodology::runAdaptivePbExperiment(twoWorkloads(),
                                             twoRoundOptions(2));
    EXPECT_EQ(methodology::rankTableDigest(run.result.summaries),
              "18374f46cf21b94e");
    ASSERT_EQ(run.rounds.size(), 2u);
    EXPECT_EQ(run.rounds[0].ambiguousPairs, 18u);
    EXPECT_EQ(run.rounds[1].ambiguousPairs, 17u);
    EXPECT_EQ(run.rounds[0].simulatedBenchmarks,
              (std::vector<std::string>{"gzip", "mcf"}));
    EXPECT_EQ(run.rounds[1].simulatedBenchmarks,
              (std::vector<std::string>{"gzip", "mcf"}));
    EXPECT_FALSE(run.converged);
}

TEST(AdaptiveSampling, RefinementRoundKeepsItsDiagnostics)
{
    // Every cell reports a wide CI, so both benchmarks stay ambiguous
    // and round 1 refines both; at round 1's schedule every mcf cell
    // fails and the collect-mode round drops mcf.
    exec::EngineOptions engine_opts;
    engine_opts.threads = 2;
    engine_opts.simulate = [](const exec::SimJob &job,
                              const exec::AttemptContext &ctx) {
        if (job.workload->name == "mcf" &&
            job.sampling.intervalInstructions == 2500)
            throw exec::PermanentFault("refined mcf cell");
        const double cycles =
            100000.0 + 37.0 * static_cast<double>(ctx.jobIndex % 88);
        rigor::sample::SampleSummary sample;
        sample.units = 4;
        sample.streamInstructions = job.instructions;
        sample.ciHalfWidth = 1.0;
        sample.cpiMean = cycles / static_cast<double>(job.instructions);
        sample.relativeError = sample.ciHalfWidth / sample.cpiMean;
        sample.estimatedCycles = cycles;
        return exec::CellResult::sampled(sample);
    };
    exec::SimulationEngine engine(engine_opts);

    methodology::AdaptiveSamplingOptions options = twoRoundOptions(2);
    options.base.campaign.engine = &engine;
    options.base.campaign.faultPolicy.collectFailures = true;
    options.base.campaign.degradation =
        rigor::check::DegradationMode::DropBenchmark;
    const methodology::AdaptiveSamplingResult run =
        methodology::runAdaptivePbExperiment(twoWorkloads(), options);

    ASSERT_EQ(run.rounds.size(), 2u);
    EXPECT_EQ(run.rounds[1].simulatedBenchmarks,
              (std::vector<std::string>{"gzip"}));
    EXPECT_TRUE(run.result.validity.hasRule(
        rigor::check::rules::kCampaignCellQuarantined))
        << run.result.validity.toString();
    EXPECT_TRUE(run.result.validity.hasRule(
        rigor::check::rules::kCampaignBenchmarkDropped))
        << run.result.validity.toString();
}

TEST(AdaptiveSampling, CrashAndResumeReproducesTheUninterruptedRun)
{
    // Journal replays carry the CIs their cells were simulated with,
    // so a resumed campaign judges the same ambiguity, refines the
    // same benchmarks and prints the same table. The crash points
    // fall inside round 0 (176 cells), right after it, and inside the
    // refinement round.
    const auto workloads = twoWorkloads();
    const methodology::AdaptiveSamplingResult uninterrupted =
        methodology::runAdaptivePbExperiment(workloads,
                                             twoRoundOptions(2));
    ASSERT_EQ(uninterrupted.rounds.size(), 2u);
    const Outcome reference = outcomeOf(uninterrupted);

    const std::string path =
        std::string(::testing::TempDir()) + "adaptive_resume";
    for (const std::size_t crash_after : {40u, 176u, 250u}) {
        SCOPED_TRACE("crash after " + std::to_string(crash_after));
        std::remove(path.c_str());
        {
            exec::ResultJournal journal(path);
            journal.simulateCrashAfter(crash_after);
            methodology::AdaptiveSamplingOptions crashing =
                twoRoundOptions(2);
            crashing.base.campaign.journal = &journal;
            EXPECT_THROW(methodology::runAdaptivePbExperiment(workloads,
                                                              crashing),
                         exec::SimulatedCrash);
        }
        exec::ResultJournal journal(path);
        ASSERT_EQ(journal.loadedRecords(), crash_after);
        methodology::AdaptiveSamplingOptions resumed = twoRoundOptions(2);
        resumed.base.campaign.journal = &journal;
        expectSameOutcome(outcomeOf(methodology::runAdaptivePbExperiment(
                              workloads, resumed)),
                          reference);
    }
    std::remove(path.c_str());
}
