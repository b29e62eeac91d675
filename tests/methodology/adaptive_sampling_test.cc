#include <gtest/gtest.h>

#include <string>
#include <vector>

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
    campaign.sampling.targetRelativeError = 0.3;
    return options;
}

/** Everything the adaptive loop decided, in comparable form. */
struct Outcome
{
    std::string rankTable;
    std::vector<std::vector<double>> responses;
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

    methodology::AdaptiveSamplingOptions sandboxed = twoRoundOptions(2);
    sandboxed.base.campaign.isolation = exec::IsolationMode::Process;
    expectSameOutcome(
        outcomeOf(methodology::runAdaptivePbExperiment(workloads,
                                                       sandboxed)),
        reference);
}

TEST(AdaptiveSampling, ProcessIsolationForksOnePoolForEveryRound)
{
    // Each sandbox worker's lifetime closes as one "proc.worker"
    // span when its pool goes away: two workers for the whole
    // campaign, not two per round.
    obs::TraceWriter trace;
    methodology::AdaptiveSamplingOptions options = twoRoundOptions(2);
    options.base.campaign.isolation = exec::IsolationMode::Process;
    options.base.campaign.trace = &trace;
    const methodology::AdaptiveSamplingResult run =
        methodology::runAdaptivePbExperiment(twoWorkloads(), options);
    ASSERT_EQ(run.rounds.size(), 2u);

    const std::string json = trace.toJson();
    const std::string span = "\"name\":\"proc.worker\"";
    std::size_t spans = 0;
    for (std::size_t at = json.find(span); at != std::string::npos;
         at = json.find(span, at + 1))
        ++spans;
    EXPECT_EQ(spans, 2u);
}
