#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "enhance/precompute.hh"
#include "exec/engine.hh"
#include "methodology/enhancement_analysis.hh"
#include "methodology/parameter_space.hh"
#include "methodology/pb_experiment.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace enhance = rigor::enhance;
namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

namespace
{

/** Two cheap workloads keep this suite fast (2 x 88 runs). */
std::vector<trace::WorkloadProfile>
twoWorkloads()
{
    return {trace::workloadByName("gzip"),
            trace::workloadByName("mcf")};
}

methodology::PbExperimentOptions
fastOptions()
{
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 8000;
    return opts;
}

} // namespace

TEST(PbExperiment, StructureOfResult)
{
    const auto workloads = twoWorkloads();
    const methodology::PbExperimentResult r =
        methodology::runPbExperiment(workloads, fastOptions());

    EXPECT_EQ(r.design.numRows(), 88u);
    EXPECT_EQ(r.design.numColumns(), 43u);
    ASSERT_EQ(r.benchmarks.size(), 2u);
    ASSERT_EQ(r.responses.size(), 2u);
    for (const auto &resp : r.responses) {
        EXPECT_EQ(resp.size(), 88u);
        for (double cycles : resp)
            EXPECT_GT(cycles, 0.0);
    }
    ASSERT_EQ(r.effects.size(), 2u);
    EXPECT_EQ(r.effects[0].size(), methodology::numFactors);
    ASSERT_EQ(r.summaries.size(), methodology::numFactors);
}

TEST(PbExperiment, RanksArePermutations)
{
    const auto workloads = twoWorkloads();
    const methodology::PbExperimentResult r =
        methodology::runPbExperiment(workloads, fastOptions());
    for (const std::vector<unsigned> &ranks : r.ranks) {
        std::set<unsigned> seen(ranks.begin(), ranks.end());
        EXPECT_EQ(seen.size(), 43u);
        EXPECT_EQ(*seen.begin(), 1u);
        EXPECT_EQ(*seen.rbegin(), 43u);
    }
}

TEST(PbExperiment, SummariesSortedAscending)
{
    const auto workloads = twoWorkloads();
    const methodology::PbExperimentResult r =
        methodology::runPbExperiment(workloads, fastOptions());
    for (std::size_t i = 1; i < r.summaries.size(); ++i)
        EXPECT_LE(r.summaries[i - 1].sumOfRanks,
                  r.summaries[i].sumOfRanks);
}

TEST(PbExperiment, DeterministicAcrossThreadCounts)
{
    const auto workloads = twoWorkloads();
    methodology::PbExperimentOptions serial = fastOptions();
    serial.campaign.threads = 1;
    methodology::PbExperimentOptions parallel = fastOptions();
    parallel.campaign.threads = std::max(
        2u, std::thread::hardware_concurrency());
    const auto a = methodology::runPbExperiment(workloads, serial);
    const auto b = methodology::runPbExperiment(workloads, parallel);
    EXPECT_EQ(a.responses, b.responses);
}

TEST(PbExperiment, SharedEngineServesRepeatRunsFromCache)
{
    const auto workloads = twoWorkloads();
    rigor::exec::SimulationEngine engine(
        rigor::exec::EngineOptions{2, true});
    methodology::PbExperimentOptions opts = fastOptions();
    opts.campaign.engine = &engine;

    const auto first = methodology::runPbExperiment(workloads, opts);
    EXPECT_EQ(engine.progress().snapshot().cacheHits, 0u);

    // The verbatim rerun — what the enhancement analysis does for its
    // base leg — must be served entirely from the cache, bit-exact.
    const auto second = methodology::runPbExperiment(workloads, opts);
    EXPECT_EQ(first.responses, second.responses);
    EXPECT_EQ(engine.progress().snapshot().cacheHits,
              2 * 88u); // 2 workloads x 88 design rows
}

TEST(PbExperiment, FailureNamesBenchmarkAndDesignRow)
{
    const auto workloads = twoWorkloads();
    try {
        // The enhanced leg's hook factory fails for every mcf cell.
        methodology::runEnhancementExperiment(
            workloads, fastOptions(),
            [](const trace::WorkloadProfile &profile)
                -> std::unique_ptr<rigor::sim::ExecutionHook> {
                if (profile.name == "mcf")
                    throw std::runtime_error("bad configuration");
                return nullptr;
            },
            "failing");
        FAIL() << "expected the experiment to fail";
    } catch (const std::runtime_error &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("mcf"), std::string::npos) << message;
        EXPECT_NE(message.find("design row"), std::string::npos)
            << message;
        EXPECT_NE(message.find("bad configuration"),
                  std::string::npos)
            << message;
    }
}

TEST(PbExperiment, RankVectorsMatchRanks)
{
    const auto workloads = twoWorkloads();
    const methodology::PbExperimentResult r =
        methodology::runPbExperiment(workloads, fastOptions());
    const auto vectors = r.rankVectors();
    ASSERT_EQ(vectors.size(), r.ranks.size());
    for (std::size_t b = 0; b < vectors.size(); ++b)
        for (std::size_t f = 0; f < vectors[b].size(); ++f)
            EXPECT_DOUBLE_EQ(vectors[b][f],
                             static_cast<double>(r.ranks[b][f]));
}

TEST(PbExperiment, HookFactoryIsApplied)
{
    // An intercept-everything hook must change the responses.
    struct AllHook : rigor::sim::ExecutionHook
    {
        bool
        intercept(const trace::Instruction &inst) override
        {
            return enhance::isPrecomputable(inst.op);
        }
    };

    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip")};
    const methodology::EnhancementExperimentResult result =
        methodology::runEnhancementExperiment(
            workloads, fastOptions(),
            [](const trace::WorkloadProfile &)
                -> std::unique_ptr<rigor::sim::ExecutionHook> {
                return std::make_unique<AllHook>();
            },
            "all");
    // Removing every integer op from execution must help somewhere.
    double base_total = 0.0;
    double enh_total = 0.0;
    for (std::size_t i = 0; i < 88; ++i) {
        base_total += result.base.responses[0][i];
        enh_total += result.enhanced.responses[0][i];
    }
    EXPECT_LT(enh_total, base_total);
}

TEST(PbExperiment, SimulateOnceMatchesDirectRun)
{
    const trace::WorkloadProfile &p = trace::workloadByName("gzip");
    const rigor::sim::ProcessorConfig config =
        methodology::uniformConfig(doe::Level::High);
    const double a = methodology::simulateOnce(p, config, 5000);
    const double b = methodology::simulateOnce(p, config, 5000);
    EXPECT_EQ(a, b);
    EXPECT_GT(a, 0.0);
}

TEST(PbExperiment, ValidatesInput)
{
    EXPECT_THROW(
        methodology::runPbExperiment({}, fastOptions()),
        std::invalid_argument);
    methodology::PbExperimentOptions zero = fastOptions();
    zero.instructionsPerRun = 0;
    const auto workloads = twoWorkloads();
    EXPECT_THROW(methodology::runPbExperiment(workloads, zero),
                 std::invalid_argument);
}

TEST(PbExperiment, DropBenchmarksKeepsEveryVectorAligned)
{
    // Before ranking, as the driver drops: effects not filled yet.
    methodology::PbExperimentResult result;
    result.benchmarks = {"gzip", "mcf", "art"};
    result.responses = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
    result.ciHalfWidths = {{0.5, 0.5}, {3.0, 4.0}, {0.0, 0.0}};
    const std::vector<std::string> drop = {"gzip", "nope"};
    result.dropBenchmarks(drop);

    EXPECT_EQ(result.benchmarks,
              (std::vector<std::string>{"mcf", "art"}));
    EXPECT_EQ(result.responses,
              (std::vector<std::vector<double>>{{3.0, 4.0}, {5.0, 6.0}}));
    EXPECT_EQ(result.ciHalfWidths,
              (std::vector<std::vector<double>>{{3.0, 4.0}, {0.0, 0.0}}));
    EXPECT_TRUE(result.effects.empty());
    EXPECT_EQ(result.droppedBenchmarks,
              (std::vector<std::string>{"gzip"}));
    EXPECT_EQ(result.effectHalfWidth(0), 5.0);
    EXPECT_EQ(result.effectHalfWidth(1), 0.0);

    const std::vector<std::string> rest = {"mcf", "art"};
    EXPECT_THROW(result.dropBenchmarks(rest), std::invalid_argument);
    EXPECT_EQ(result.benchmarks.size(), 2u);
}
