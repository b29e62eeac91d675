#include <gtest/gtest.h>

#include <string>

#include "check/rule_ids.hh"
#include "check/spec_lint.hh"

namespace check = rigor::check;
namespace rules = rigor::check::rules;

TEST(SpecLint, ParsesKeysCommentsAndOverrides)
{
    check::DiagnosticSink sink;
    const check::ExperimentSpec spec = check::parseExperimentSpec(
        "# a comment\n"
        "workload = gzip\n"
        "workload.fracLoad = 0.3   # trailing comment\n"
        "config.robEntries = 64\n"
        "config.bpred = perfect\n"
        "config.l1d.sizeBytes = 32768\n"
        "config.itlb.entries = 128\n"
        "run.instructions = 50000\n"
        "run.warmup = 1000\n",
        "good.spec", sink);
    EXPECT_TRUE(sink.passed()) << sink.toString();
    EXPECT_TRUE(spec.hasWorkload);
    EXPECT_EQ(spec.workload.name, "gzip");
    EXPECT_DOUBLE_EQ(spec.workload.fracLoad, 0.3);
    EXPECT_EQ(spec.config.robEntries, 64u);
    EXPECT_EQ(spec.config.bpred, rigor::sim::BranchPredictorKind::Perfect);
    EXPECT_EQ(spec.config.l1d.sizeBytes, 32768u);
    EXPECT_EQ(spec.config.itlb.entries, 128u);
    EXPECT_EQ(spec.instructions, 50000u);
    EXPECT_EQ(spec.warmup, 1000u);
}

TEST(SpecLint, ValidSpecLintsClean)
{
    check::DiagnosticSink sink;
    EXPECT_TRUE(check::lintExperimentSpec(
        "workload = mcf\nrun.instructions = 200000\n", "ok.spec",
        sink))
        << sink.toString();
}

TEST(SpecLint, UnknownKeyRejectedWithLine)
{
    check::DiagnosticSink sink;
    EXPECT_FALSE(check::lintExperimentSpec(
        "workload = gzip\nnoSuchKnob = 3\n", "bad.spec", sink));
    EXPECT_TRUE(sink.hasRule(rules::kSpecUnknownKey));
    ASSERT_FALSE(sink.diagnostics().empty());
    EXPECT_EQ(sink.diagnostics().front().context.line, 2u);
}

TEST(SpecLint, MalformedLineRejected)
{
    check::DiagnosticSink sink;
    check::parseExperimentSpec("just words\n", "syntax.spec", sink);
    EXPECT_TRUE(sink.hasRule(rules::kSpecSyntax));
}

TEST(SpecLint, BadValueRejected)
{
    check::DiagnosticSink sink;
    check::parseExperimentSpec("config.robEntries = many\n",
                               "value.spec", sink);
    EXPECT_TRUE(sink.hasRule(rules::kSpecBadValue));

    // The predictor is Table 6's 2-Level or Perfect, nothing else.
    for (const char *name : {"bimodal", "local", "tournament"}) {
        check::DiagnosticSink bpred_sink;
        check::parseExperimentSpec(
            std::string("config.bpred = ") + name + "\n", "bpred.spec",
            bpred_sink);
        EXPECT_TRUE(bpred_sink.hasRule(rules::kSpecBadValue)) << name;
        EXPECT_NE(
            bpred_sink.toString().find("expected 2-level or perfect"),
            std::string::npos)
            << bpred_sink.toString();
    }
}

TEST(SpecLint, UnknownWorkloadRejected)
{
    check::DiagnosticSink sink;
    check::parseExperimentSpec("workload = linpack\n", "wl.spec",
                               sink);
    EXPECT_TRUE(sink.hasRule(rules::kSpecUnknownWorkload));
}

TEST(SpecLint, SemanticViolationsReachConfigAndWorkloadRules)
{
    check::DiagnosticSink sink;
    EXPECT_FALSE(check::lintExperimentSpec(
        "workload = gzip\n"
        "workload.fracLoad = 0.7\n"
        "workload.fracStore = 0.5\n"
        "config.lsqRatio = 1.5\n",
        "semantic.spec", sink));
    EXPECT_TRUE(sink.hasRule(rules::kConfigLsqRatio));
    EXPECT_TRUE(sink.hasRule(rules::kWorkloadMixMass));
}

TEST(SpecLint, ParseErrorsShortCircuitSemanticChecks)
{
    // A spec that fails to parse is reported for its syntax only —
    // semantic rules over half-applied values would be noise.
    check::DiagnosticSink sink;
    EXPECT_FALSE(check::lintExperimentSpec(
        "config.lsqRatio = 1.5\nnot a key value line\n",
        "mixed.spec", sink));
    EXPECT_TRUE(sink.hasRule(rules::kSpecSyntax));
    EXPECT_FALSE(sink.hasRule(rules::kConfigLsqRatio));
}
