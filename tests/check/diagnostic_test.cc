#include <gtest/gtest.h>

#include "check/diagnostic.hh"
#include "check/rule_ids.hh"

namespace check = rigor::check;

TEST(Diagnostic, RendersClangStyle)
{
    check::Diagnostic d;
    d.severity = check::Severity::Error;
    d.ruleId = "design.orthogonality";
    d.message = "columns 1 and 2 are correlated";
    d.context = {"design.csv", 14, {}};
    EXPECT_EQ(d.toString(),
              "design.csv:14: error: columns 1 and 2 are correlated "
              "[design.orthogonality]");
}

TEST(Diagnostic, RendersObjectContextWithoutFile)
{
    check::Diagnostic d;
    d.severity = check::Severity::Warning;
    d.ruleId = "workload.no-memory-ops";
    d.message = "no loads or stores";
    d.context = {{}, 0, "workload 'gzip'"};
    EXPECT_EQ(d.toString(),
              "workload 'gzip': warning: no loads or stores "
              "[workload.no-memory-ops]");
}

TEST(Diagnostic, RendersWithoutAnyContext)
{
    check::Diagnostic d;
    d.severity = check::Severity::Note;
    d.ruleId = "x.y";
    d.message = "m";
    EXPECT_EQ(d.toString(), "note: m [x.y]");
}

TEST(DiagnosticSink, CountsSeverities)
{
    check::DiagnosticSink sink;
    EXPECT_TRUE(sink.passed());
    sink.warning("a.b", "w");
    EXPECT_TRUE(sink.passed());
    sink.error("c.d", "e1");
    sink.error("c.d", "e2");
    sink.note("e.f", "n");
    EXPECT_FALSE(sink.passed());
    EXPECT_EQ(sink.errorCount(), 2u);
    EXPECT_EQ(sink.warningCount(), 1u);
    EXPECT_EQ(sink.diagnostics().size(), 4u);
}

TEST(DiagnosticSink, HasRuleFindsReportedIds)
{
    check::DiagnosticSink sink;
    sink.error(check::rules::kDesignColumnBalance, "unbalanced");
    EXPECT_TRUE(sink.hasRule(check::rules::kDesignColumnBalance));
    EXPECT_FALSE(sink.hasRule(check::rules::kDesignOrthogonality));
}

TEST(DiagnosticSink, SummaryPluralizes)
{
    check::DiagnosticSink sink;
    EXPECT_EQ(sink.summary(), "0 errors, 0 warnings");
    sink.error("a.b", "e");
    sink.warning("c.d", "w");
    EXPECT_EQ(sink.summary(), "1 error, 1 warning");
    sink.error("a.b", "e");
    sink.warning("c.d", "w");
    EXPECT_EQ(sink.summary(), "2 errors, 2 warnings");
}

TEST(PreflightError, CarriesDiagnostics)
{
    check::DiagnosticSink sink;
    sink.error(check::rules::kDesignColumnBalance, "unbalanced");
    const check::PreflightError err("unit test", std::move(sink));
    ASSERT_EQ(err.diagnostics().size(), 1u);
    EXPECT_EQ(err.diagnostics().front().ruleId,
              check::rules::kDesignColumnBalance);
    EXPECT_NE(std::string(err.what()).find("unit test"),
              std::string::npos);
}
