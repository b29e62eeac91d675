#include <gtest/gtest.h>

#include "exec/engine.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/workflow.hh"
#include "trace/workloads.hh"

namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

namespace
{

/** One shared (expensive) workflow run. */
const methodology::WorkflowResult &
sharedRun()
{
    static const methodology::WorkflowResult result = [] {
        methodology::WorkflowOptions opts;
        opts.instructionsPerRun = 15000;
        opts.warmupInstructions = 15000;
        opts.maxCriticalParameters = 3;
        const std::vector<trace::WorkloadProfile> workloads = {
            trace::workloadByName("gzip"),
            trace::workloadByName("mcf"),
        };
        return methodology::runRecommendedWorkflow(workloads, opts);
    }();
    return result;
}

} // namespace

TEST(Workflow, FactorByName)
{
    EXPECT_EQ(methodology::factorByName("Reorder Buffer Entries"),
              methodology::Factor::RobEntries);
    EXPECT_EQ(methodology::factorByName("Dummy Factor #2"),
              methodology::Factor::DummyFactor2);
    EXPECT_THROW(methodology::factorByName("nope"),
                 std::invalid_argument);
}

TEST(Workflow, ProducesCriticalSetWithinCap)
{
    const methodology::WorkflowResult &r = sharedRun();
    EXPECT_GE(r.criticalFactors.size(), 1u);
    EXPECT_LE(r.criticalFactors.size(), 3u);
    // Dummies are never "critical".
    for (methodology::Factor f : r.criticalFactors) {
        EXPECT_NE(f, methodology::Factor::DummyFactor1);
        EXPECT_NE(f, methodology::Factor::DummyFactor2);
    }
}

TEST(Workflow, SensitivityCoversCriticalFactors)
{
    const methodology::WorkflowResult &r = sharedRun();
    EXPECT_EQ(r.sensitivity.numFactors, r.criticalFactors.size());
    EXPECT_EQ(r.recommendations.size(), r.criticalFactors.size());
}

TEST(Workflow, RecommendationsPointTheRightWay)
{
    // Every Table 6-8 "high" value is the better one by design, so
    // each critical parameter should save cycles at its high level.
    const methodology::WorkflowResult &r = sharedRun();
    for (const methodology::ParameterRecommendation &rec :
         r.recommendations)
        EXPECT_GT(rec.cyclesSavedHighVsLow, 0.0) << rec.name;
}

TEST(Workflow, RecommendationsSortedByVariation)
{
    const methodology::WorkflowResult &r = sharedRun();
    for (std::size_t i = 1; i < r.recommendations.size(); ++i)
        EXPECT_GE(r.recommendations[i - 1].variationExplained,
                  r.recommendations[i].variationExplained);
}

TEST(Workflow, ReportMentionsAllSteps)
{
    const std::string report = sharedRun().toString();
    EXPECT_NE(report.find("Step 1"), std::string::npos);
    EXPECT_NE(report.find("Step 3"), std::string::npos);
    EXPECT_NE(report.find("Step 4"), std::string::npos);
    EXPECT_NE(report.find("interaction"), std::string::npos);
}

TEST(Workflow, ExecutionCountersCoverBothPhases)
{
    const methodology::WorkflowResult &r = sharedRun();
    // 88 screen runs x 2 workloads, plus 2^k factorial cells x 2
    // workloads, all through the one shared engine.
    const std::uint64_t expected =
        88u * 2u + (std::uint64_t{1} << r.criticalFactors.size()) * 2u;
    EXPECT_EQ(r.execution.runsTotal, expected);
    EXPECT_EQ(r.execution.runsCompleted, expected);
    EXPECT_GT(r.execution.simulatedInstructions, 0u);
    EXPECT_GT(r.execution.wallSeconds, 0.0);
    EXPECT_NE(sharedRun().toString().find("Execution:"),
              std::string::npos);
}

TEST(Workflow, DeterministicAcrossThreadCounts)
{
    methodology::WorkflowOptions opts;
    opts.instructionsPerRun = 5000;
    opts.warmupInstructions = 0;
    opts.maxCriticalParameters = 2;
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip")};

    opts.campaign.threads = 1;
    const methodology::WorkflowResult serial =
        methodology::runRecommendedWorkflow(workloads, opts);
    opts.campaign.threads = 8;
    const methodology::WorkflowResult parallel =
        methodology::runRecommendedWorkflow(workloads, opts);

    EXPECT_EQ(serial.screening.responses,
              parallel.screening.responses);
    EXPECT_EQ(serial.criticalFactors, parallel.criticalFactors);
    ASSERT_EQ(serial.sensitivity.rows.size(),
              parallel.sensitivity.rows.size());
    for (std::size_t i = 0; i < serial.sensitivity.rows.size(); ++i)
        EXPECT_EQ(serial.sensitivity.rows[i].effect,
                  parallel.sensitivity.rows[i].effect)
            << "row " << i;
}

TEST(Workflow, ExecutionCountsOnlyThisCampaign)
{
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip")};
    rigor::exec::SimulationEngine engine(
        rigor::exec::EngineOptions{2, true});
    methodology::PbExperimentOptions screen;
    screen.instructionsPerRun = 2000;
    screen.campaign.engine = &engine;
    methodology::runPbExperiment(workloads, screen);

    methodology::WorkflowOptions opts;
    opts.instructionsPerRun = 2000;
    opts.warmupInstructions = 0;
    opts.maxCriticalParameters = 2;
    opts.campaign.engine = &engine;
    const methodology::WorkflowResult r =
        methodology::runRecommendedWorkflow(workloads, opts);
    // The earlier screen's 88 runs stay out of the workflow's own
    // screen and factorial.
    const std::uint64_t expected =
        88u + (std::uint64_t{1} << r.criticalFactors.size());
    EXPECT_EQ(r.execution.runsTotal, expected);
    EXPECT_EQ(r.execution.runsCompleted, expected);
    EXPECT_EQ(engine.progress().snapshot().runsTotal, 88u + expected);
}

TEST(Workflow, ValidatesOptions)
{
    methodology::WorkflowOptions opts;
    opts.maxCriticalParameters = 0;
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip")};
    EXPECT_THROW(methodology::runRecommendedWorkflow(workloads, opts),
                 std::invalid_argument);
    opts.maxCriticalParameters = 13;
    EXPECT_THROW(methodology::runRecommendedWorkflow(workloads, opts),
                 std::invalid_argument);
}

TEST(Workflow, ConfigWithOverridesAppliesOnlyListed)
{
    const rigor::sim::ProcessorConfig base =
        methodology::configWithOverrides({});
    const rigor::sim::ProcessorConfig tweaked =
        methodology::configWithOverrides(
            {{methodology::Factor::RobEntries, rigor::doe::Level::High},
             {methodology::Factor::L2Latency, rigor::doe::Level::Low}});
    EXPECT_EQ(tweaked.robEntries, 64u);
    EXPECT_EQ(tweaked.l2.latency, 20u);
    // Untouched fields keep the typical defaults.
    EXPECT_EQ(tweaked.l1d.sizeBytes, base.l1d.sizeBytes);
    EXPECT_EQ(tweaked.memLatencyFirst, base.memLatencyFirst);
}
