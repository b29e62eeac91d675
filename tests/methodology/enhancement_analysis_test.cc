#include <gtest/gtest.h>

#include <memory>

#include "enhance/precompute.hh"
#include "methodology/enhancement_analysis.hh"
#include "methodology/parameter_space.hh"
#include "methodology/published_data.hh"
#include "methodology/rank_table.hh"
#include "obs/json.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace methodology = rigor::methodology;

namespace
{

std::vector<doe::FactorRankSummary>
summaries(std::initializer_list<std::pair<const char *, unsigned long>>
              items)
{
    std::vector<doe::FactorRankSummary> out;
    for (const auto &[name, sum] : items) {
        doe::FactorRankSummary s;
        s.name = name;
        s.sumOfRanks = sum;
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace

TEST(EnhancementAnalysis, DeltasComputedPerFactor)
{
    const auto base = summaries({{"A", 10}, {"B", 20}, {"C", 30}});
    const auto enhanced = summaries({{"A", 25}, {"B", 18}, {"C", 30}});
    const methodology::EnhancementComparison cmp =
        methodology::compareRankTables(base, enhanced);

    EXPECT_EQ(cmp.shift("A").delta(), 15);
    EXPECT_EQ(cmp.shift("B").delta(), -2);
    EXPECT_EQ(cmp.shift("C").delta(), 0);
}

TEST(EnhancementAnalysis, ShiftsSortedByMagnitude)
{
    const auto base = summaries({{"A", 10}, {"B", 20}, {"C", 30}});
    const auto enhanced = summaries({{"A", 12}, {"B", 50}, {"C", 29}});
    const methodology::EnhancementComparison cmp =
        methodology::compareRankTables(base, enhanced);
    EXPECT_EQ(cmp.shifts[0].name, "B");
    EXPECT_EQ(cmp.shifts[1].name, "A");
    EXPECT_EQ(cmp.shifts[2].name, "C");
}

TEST(EnhancementAnalysis, MatchesByNameNotOrder)
{
    const auto base = summaries({{"A", 10}, {"B", 20}});
    const auto enhanced = summaries({{"B", 22}, {"A", 11}});
    const methodology::EnhancementComparison cmp =
        methodology::compareRankTables(base, enhanced);
    EXPECT_EQ(cmp.shift("A").sumAfter, 11ul);
    EXPECT_EQ(cmp.shift("B").sumAfter, 22ul);
}

TEST(EnhancementAnalysis, BiggestReliefAmongTop)
{
    const auto base =
        summaries({{"A", 10}, {"B", 20}, {"C", 30}, {"Z", 400}});
    const auto enhanced =
        summaries({{"A", 12}, {"B", 35}, {"C", 28}, {"Z", 300}});
    const methodology::EnhancementComparison cmp =
        methodology::compareRankTables(base, enhanced);
    // Z moved most overall but is not among the top-3 significant
    // base factors; among {A, B, C} the biggest riser is B.
    EXPECT_EQ(cmp.biggestReliefAmongTop(base, 3).name, "B");
}

TEST(EnhancementAnalysis, PublishedTablesHeadlineResult)
{
    // Reproduce the paper's section 4.3 conclusion directly from the
    // published tables: among the ten significant parameters,
    // instruction precomputation relieves Int ALUs the most.
    const auto base = methodology::publishedTable9().asSummaries();
    const auto enhanced =
        methodology::publishedTable12().asSummaries();
    const methodology::EnhancementComparison cmp =
        methodology::compareRankTables(base, enhanced);
    EXPECT_EQ(cmp.biggestReliefAmongTop(base, 10).name, "Int ALUs");
    EXPECT_EQ(cmp.shift("Int ALUs").delta(), 19); // 118 -> 137
}

TEST(EnhancementAnalysis, DuplicateEnhancedFactorsRejected)
{
    // A duplicate name in the enhanced table must be an error, not a
    // silent first-wins match.
    const auto base = summaries({{"A", 10}, {"B", 20}});
    const auto enhanced = summaries({{"A", 12}, {"A", 99}});
    EXPECT_THROW(methodology::compareRankTables(base, enhanced),
                 std::invalid_argument);
}

TEST(EnhancementAnalysis, PairedExperimentSharesOneEngine)
{
    struct NoopHook : rigor::sim::ExecutionHook
    {
        bool intercept(const rigor::trace::Instruction &) override
        {
            return false;
        }
    };

    const std::vector<rigor::trace::WorkloadProfile> workloads = {
        rigor::trace::workloadByName("gzip")};
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 4000;
    opts.campaign.threads = 2;

    const methodology::EnhancementExperimentResult result =
        methodology::runEnhancementExperiment(
            workloads, opts,
            [](const rigor::trace::WorkloadProfile &)
                -> std::unique_ptr<rigor::sim::ExecutionHook> {
                return std::make_unique<NoopHook>();
            },
            "noop");

    // Both legs ran: 88 base + 88 enhanced runs on one engine.
    EXPECT_EQ(result.execution.runsTotal, 176u);
    EXPECT_EQ(result.execution.runsCompleted, 176u);
    EXPECT_EQ(result.base.responses[0].size(), 88u);
    EXPECT_EQ(result.enhanced.responses[0].size(), 88u);
    EXPECT_EQ(result.comparison.shifts.size(),
              methodology::numFactors);
    // A do-nothing hook leaves the responses identical, so every
    // sum-of-ranks shift is zero.
    for (const methodology::RankShift &s : result.comparison.shifts)
        EXPECT_EQ(s.delta(), 0) << s.name;
}

TEST(EnhancementAnalysis, OutcomeIsPinned)
{
    // Both legs' rank tables and their comparison, exactly, with a
    // hook that precomputes every eligible operation.
    struct PrecomputeAll : rigor::sim::ExecutionHook
    {
        bool
        intercept(const rigor::trace::Instruction &inst) override
        {
            return rigor::enhance::isPrecomputable(inst.op);
        }
    };

    const std::vector<rigor::trace::WorkloadProfile> workloads = {
        rigor::trace::workloadByName("gzip"),
        rigor::trace::workloadByName("mcf")};
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 2000;
    opts.campaign.threads = 2;
    const methodology::EnhancementExperimentResult result =
        methodology::runEnhancementExperiment(
            workloads, opts,
            [](const rigor::trace::WorkloadProfile &)
                -> std::unique_ptr<rigor::sim::ExecutionHook> {
                return std::make_unique<PrecomputeAll>();
            },
            "precompute-all");

    EXPECT_EQ(rigor::obs::digestHex(
                  rigor::obs::fnv1a(result.comparison.toString())),
              "4267c98350f9b70a");
    EXPECT_EQ(methodology::rankTableDigest(result.base.summaries),
              "518862a1b2728a56");
    EXPECT_EQ(methodology::rankTableDigest(result.enhanced.summaries),
              "aa5fc6ecf8db296d");
}

TEST(EnhancementAnalysis, SharedEngineMakesBaseLegFree)
{
    const std::vector<rigor::trace::WorkloadProfile> workloads = {
        rigor::trace::workloadByName("gzip")};
    rigor::exec::SimulationEngine engine(
        rigor::exec::EngineOptions{2, true});
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 4000;
    opts.campaign.engine = &engine;

    // An earlier base experiment on the same engine...
    methodology::runPbExperiment(workloads, opts);
    EXPECT_EQ(engine.progress().snapshot().cacheHits, 0u);

    // ...makes the paired experiment's base leg pure cache hits.
    methodology::runEnhancementExperiment(
        workloads, opts,
        [](const rigor::trace::WorkloadProfile &)
            -> std::unique_ptr<rigor::sim::ExecutionHook> {
            return nullptr;
        },
        "noop");
    EXPECT_GE(engine.progress().snapshot().cacheHits, 88u);
}

TEST(EnhancementAnalysis, ExecutionCountsOnlyThisCampaign)
{
    const std::vector<rigor::trace::WorkloadProfile> workloads = {
        rigor::trace::workloadByName("gzip")};
    rigor::exec::SimulationEngine engine(
        rigor::exec::EngineOptions{2, true});
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 2000;
    opts.campaign.engine = &engine;
    methodology::runPbExperiment(workloads, opts);

    const methodology::EnhancementExperimentResult result =
        methodology::runEnhancementExperiment(
            workloads, opts,
            [](const rigor::trace::WorkloadProfile &)
                -> std::unique_ptr<rigor::sim::ExecutionHook> {
                return nullptr;
            },
            "noop");
    // The earlier screen's 88 runs stay out of the paired legs' 176.
    EXPECT_EQ(result.execution.runsTotal, 176u);
    EXPECT_EQ(result.execution.runsCompleted, 176u);
    EXPECT_EQ(engine.progress().snapshot().runsTotal, 264u);
}

TEST(EnhancementAnalysis, ExperimentRequiresHookFactory)
{
    const std::vector<rigor::trace::WorkloadProfile> workloads = {
        rigor::trace::workloadByName("gzip")};
    EXPECT_THROW(methodology::runEnhancementExperiment(
                     workloads, methodology::PbExperimentOptions{},
                     {}, "id"),
                 std::invalid_argument);
    // A factory without a stable identity is refused too.
    const methodology::HookFactory factory =
        [](const rigor::trace::WorkloadProfile &)
        -> std::unique_ptr<rigor::sim::ExecutionHook> { return nullptr; };
    EXPECT_THROW(methodology::runEnhancementExperiment(
                     workloads, methodology::PbExperimentOptions{},
                     factory, ""),
                 std::invalid_argument);
}

TEST(EnhancementAnalysis, MismatchedFactorSetsRejected)
{
    const auto base = summaries({{"A", 10}, {"B", 20}});
    const auto enhanced = summaries({{"A", 10}, {"X", 20}});
    EXPECT_THROW(methodology::compareRankTables(base, enhanced),
                 std::invalid_argument);
    const auto short_list = summaries({{"A", 10}});
    EXPECT_THROW(methodology::compareRankTables(base, short_list),
                 std::invalid_argument);
}

TEST(EnhancementAnalysis, ToStringShowsDeltas)
{
    const auto base = summaries({{"A", 10}, {"B", 20}});
    const auto enhanced = summaries({{"A", 15}, {"B", 20}});
    const methodology::EnhancementComparison cmp =
        methodology::compareRankTables(base, enhanced);
    const std::string s = cmp.toString();
    EXPECT_NE(s.find("+5"), std::string::npos);
    EXPECT_NE(s.find("SumBefore"), std::string::npos);
}

TEST(EnhancementAnalysis, UnknownFactorLookupThrows)
{
    const auto base = summaries({{"A", 10}});
    const methodology::EnhancementComparison cmp =
        methodology::compareRankTables(base, base);
    EXPECT_THROW(cmp.shift("nope"), std::invalid_argument);
}
