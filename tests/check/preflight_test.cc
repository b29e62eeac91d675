#include <gtest/gtest.h>

#include <vector>

#include "check/preflight.hh"
#include "check/rule_ids.hh"
#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "methodology/pb_experiment.hh"
#include "trace/workloads.hh"

namespace check = rigor::check;
namespace doe = rigor::doe;
namespace methodology = rigor::methodology;
namespace rules = rigor::check::rules;
namespace trace = rigor::trace;

namespace
{

std::vector<trace::WorkloadProfile>
oneWorkload()
{
    return {trace::workloadByName("gzip")};
}

methodology::PbExperimentOptions
fastOptions()
{
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 2000;
    return opts;
}

/** The shipped 43-factor base design with one entry flipped. */
doe::DesignMatrix
corruptBaseDesign()
{
    doe::DesignMatrix design = doe::pbDesignForFactors(43);
    design.set(3, 7, doe::flip(design.at(3, 7)));
    return design;
}

} // namespace

TEST(Preflight, CleanPlanPasses)
{
    const auto workloads = oneWorkload();
    const doe::DesignMatrix folded =
        doe::foldover(doe::pbDesignForFactors(43));
    check::ExperimentPlan plan;
    plan.design = &folded;
    plan.expectedFactors = 43;
    plan.designIsFolded = true;
    plan.workloads = workloads;
    plan.auditParameterSpace = true;
    plan.instructionsPerRun = 200000;
    const check::DiagnosticSink sink =
        check::analyzeExperimentPlan(plan);
    EXPECT_EQ(sink.errorCount(), 0u) << sink.toString();
    EXPECT_NO_THROW(check::preflightOrThrow(plan, "test"));
}

TEST(Preflight, BadDesignInPlanThrowsWithRuleId)
{
    const auto workloads = oneWorkload();
    const doe::DesignMatrix corrupt = corruptBaseDesign();
    check::ExperimentPlan plan;
    plan.design = &corrupt;
    plan.expectedFactors = 43;
    plan.workloads = workloads;
    plan.instructionsPerRun = 200000;
    try {
        check::preflightOrThrow(plan, "unit");
        FAIL() << "expected PreflightError";
    } catch (const check::PreflightError &e) {
        EXPECT_TRUE(e.sink().hasRule(rules::kDesignColumnBalance));
        EXPECT_NE(std::string(e.what()).find("unit"),
                  std::string::npos);
    }
}

TEST(Preflight, BadExplicitConfigCaughtWithIndexContext)
{
    const auto workloads = oneWorkload();
    rigor::sim::ProcessorConfig good;
    rigor::sim::ProcessorConfig bad;
    bad.lsqRatio = 2.0;
    check::ExperimentPlan plan;
    plan.workloads = workloads;
    plan.configs = {&good, &bad};
    plan.instructionsPerRun = 200000;
    const check::DiagnosticSink sink =
        check::analyzeExperimentPlan(plan);
    ASSERT_TRUE(sink.hasRule(rules::kConfigLsqRatio));
    bool found_context = false;
    for (const check::Diagnostic &d : sink.diagnostics())
        if (d.context.object.find("configuration 1") !=
            std::string::npos)
            found_context = true;
    EXPECT_TRUE(found_context) << sink.toString();
}

// ----- Driver integration: the pre-flight is mandatory -----

TEST(Preflight, RunPbExperimentRejectsDuplicateWorkloads)
{
    const std::vector<trace::WorkloadProfile> duplicated = {
        trace::workloadByName("gzip"),
        trace::workloadByName("gzip"),
    };
    try {
        methodology::runPbExperiment(duplicated, fastOptions());
        FAIL() << "expected PreflightError";
    } catch (const check::PreflightError &e) {
        EXPECT_TRUE(
            e.sink().hasRule(rules::kWorkloadDuplicateName));
    }
}

TEST(Preflight, RunPbExperimentRejectsBrokenWorkloadProfile)
{
    std::vector<trace::WorkloadProfile> workloads = oneWorkload();
    workloads[0].fracLoad = 0.9;
    workloads[0].fracStore = 0.9;
    try {
        methodology::runPbExperiment(workloads, fastOptions());
        FAIL() << "expected PreflightError";
    } catch (const check::PreflightError &e) {
        EXPECT_TRUE(e.sink().hasRule(rules::kWorkloadMixMass));
    }
}

TEST(Preflight, SkipPreflightEscapeHatchRunsAnyway)
{
    // A deliberately out-of-spec study: the duplicated workload the
    // pre-flight rejects (RunPbExperimentRejectsDuplicateWorkloads) is
    // simulated when the escape hatch is set, over the full 88-row
    // foldover design.
    const std::vector<trace::WorkloadProfile> duplicated = {
        trace::workloadByName("gzip"),
        trace::workloadByName("gzip"),
    };
    methodology::PbExperimentOptions opts = fastOptions();
    opts.campaign.skipPreflight = true;
    const methodology::PbExperimentResult result =
        methodology::runPbExperiment(duplicated, opts);
    EXPECT_EQ(result.design.numRows(), 88u);
    EXPECT_EQ(result.responses.size(), 2u);
    EXPECT_EQ(result.responses[0], result.responses[1]);
}
