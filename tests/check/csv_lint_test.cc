#include <gtest/gtest.h>

#include "check/csv_lint.hh"
#include "check/rule_ids.hh"
#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "methodology/parameter_space.hh"

namespace check = rigor::check;
namespace doe = rigor::doe;
namespace methodology = rigor::methodology;
namespace rules = rigor::check::rules;

TEST(CsvLint, SplitsQuotedRecords)
{
    const std::vector<std::string> fields =
        check::splitCsvRecord("a,\"b,c\",\"d\"\"e\",f");
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "b,c");
    EXPECT_EQ(fields[2], "d\"e");
    EXPECT_EQ(fields[3], "f");
}

TEST(CsvLint, HeaderlessGridParses)
{
    check::DiagnosticSink sink;
    const check::ParsedCsvDesign parsed = check::parseDesignCsv(
        "1,-1\n-1,1\n", "grid.csv", sink);
    EXPECT_TRUE(sink.passed());
    ASSERT_EQ(parsed.signs.size(), 2u);
    EXPECT_EQ(parsed.signs[0], (std::vector<int>{1, -1}));
    EXPECT_EQ(parsed.firstDataLine, 1u);
    EXPECT_TRUE(parsed.factorNames.empty());
}

TEST(CsvLint, HeaderRunAndCyclesColumnsSkipped)
{
    check::DiagnosticSink sink;
    const check::ParsedCsvDesign parsed = check::parseDesignCsv(
        "run,ROB entries,LSQ ratio,gzip cycles\n"
        "0,1,-1,12345\n"
        "1,-1,1,23456\n",
        "resp.csv", sink);
    EXPECT_TRUE(sink.passed()) << sink.toString();
    ASSERT_EQ(parsed.signs.size(), 2u);
    EXPECT_EQ(parsed.signs[0], (std::vector<int>{1, -1}));
    EXPECT_EQ(parsed.factorNames,
              (std::vector<std::string>{"ROB entries", "LSQ ratio"}));
    EXPECT_EQ(parsed.firstDataLine, 2u);
}

TEST(CsvLint, BadCellReportedWithLine)
{
    check::DiagnosticSink sink;
    check::parseDesignCsv("1,-1\n1,x\n", "bad.csv", sink);
    EXPECT_TRUE(sink.hasRule(rules::kCsvBadCell));
    ASSERT_FALSE(sink.diagnostics().empty());
    EXPECT_EQ(sink.diagnostics().front().context.line, 2u);
}

TEST(CsvLint, RaggedRowRejected)
{
    check::DiagnosticSink sink;
    check::parseDesignCsv("1,-1\n1,-1,1\n", "ragged.csv", sink);
    EXPECT_TRUE(sink.hasRule(rules::kCsvRaggedRow));
}

TEST(CsvLint, EmptyFileRejected)
{
    check::DiagnosticSink sink;
    EXPECT_FALSE(check::lintDesignCsv("", "empty.csv", {}, sink));
    EXPECT_TRUE(sink.hasRule(rules::kCsvNoRows));
}

TEST(CsvLint, CorruptedExportRejected)
{
    const doe::DesignMatrix folded =
        doe::foldover(doe::pbDesignForFactors(43));
    std::string csv = "run";
    for (const std::string &name : methodology::factorNames())
        csv += "," + name;
    csv += "\n";
    for (std::size_t r = 0; r < folded.numRows(); ++r) {
        csv += std::to_string(r);
        for (std::size_t c = 0; c < folded.numColumns(); ++c) {
            // Corrupt one entry deep in the foldover half.
            const int sign =
                (r == 60 && c == 5) ? -folded.sign(r, c)
                                    : folded.sign(r, c);
            csv += "," + std::to_string(sign);
        }
        csv += "\n";
    }

    check::DiagnosticSink sink;
    check::DesignCheckOptions options;
    options.expectedFactors = 43;
    options.requireFoldover = true;
    EXPECT_FALSE(
        check::lintDesignCsv(csv, "corrupt.csv", options, sink));
    EXPECT_TRUE(sink.hasRule(rules::kDesignFoldoverComplement));
    EXPECT_TRUE(sink.hasRule(rules::kDesignColumnBalance));
}
