#include <gtest/gtest.h>

#include "check/design_check.hh"
#include "check/rule_ids.hh"
#include "doe/foldover.hh"
#include "doe/pb_design.hh"

namespace check = rigor::check;
namespace doe = rigor::doe;
namespace rules = rigor::check::rules;

namespace
{

doe::DesignMatrix
flipped(doe::DesignMatrix m, std::size_t row, std::size_t col)
{
    m.set(row, col, doe::flip(m.at(row, col)));
    return m;
}

} // namespace

// ----- checkDesignMatrix: statistical properties -----

TEST(DesignCheck, PbDesignPassesAllChecks)
{
    const doe::DesignMatrix design = doe::pbDesignForFactors(43);
    check::DiagnosticSink sink;
    check::DesignCheckOptions options;
    options.expectedFactors = 43;
    EXPECT_TRUE(check::checkDesignMatrix(design, options, sink));
    EXPECT_EQ(sink.errorCount(), 0u) << sink.toString();
}

TEST(DesignCheck, FoldedPbDesignPassesFoldoverCheck)
{
    const doe::DesignMatrix folded =
        doe::foldover(doe::pbDesignForFactors(43));
    check::DiagnosticSink sink;
    check::DesignCheckOptions options;
    options.expectedFactors = 43;
    options.requireFoldover = true;
    EXPECT_TRUE(check::checkDesignMatrix(folded, options, sink));
    EXPECT_EQ(sink.errorCount(), 0u) << sink.toString();
}

TEST(DesignCheck, NonOrthogonalMatrixRejected)
{
    // Balanced columns that are perfectly correlated (c0 == c1).
    const doe::DesignMatrix design = doe::DesignMatrix::fromSigns({
        {+1, +1, +1},
        {+1, +1, -1},
        {+1, +1, +1},
        {-1, -1, -1},
        {-1, -1, +1},
        {+1, +1, -1},
        {-1, -1, +1},
        {-1, -1, -1},
    });
    check::DiagnosticSink sink;
    check::DesignCheckOptions options;
    EXPECT_FALSE(check::checkDesignMatrix(design, options, sink));
    // Columns 0 and 1 are identical — the aliasing special case —
    // so the generic orthogonality rule is reserved for partially
    // correlated pairs.
    EXPECT_TRUE(sink.hasRule(rules::kDesignDuplicateColumn));
}

TEST(DesignCheck, PartiallyCorrelatedColumnsRejected)
{
    // dot(c0, c1) = 4 with the columns not identical: the effect
    // estimates of the two factors contaminate each other.
    const doe::DesignMatrix design = doe::DesignMatrix::fromSigns({
        {+1, +1},
        {+1, +1},
        {+1, +1},
        {+1, -1},
        {-1, +1},
        {-1, -1},
        {-1, -1},
        {-1, -1},
    });
    check::DiagnosticSink sink;
    check::DesignCheckOptions options;
    EXPECT_FALSE(check::checkDesignMatrix(design, options, sink));
    EXPECT_TRUE(sink.hasRule(rules::kDesignOrthogonality));
}

TEST(DesignCheck, NegatedColumnReportedAsAliased)
{
    const doe::DesignMatrix design = doe::DesignMatrix::fromSigns({
        {+1, -1},
        {+1, -1},
        {-1, +1},
        {-1, +1},
    });
    check::DiagnosticSink sink;
    check::DesignCheckOptions options;
    EXPECT_FALSE(check::checkDesignMatrix(design, options, sink));
    EXPECT_TRUE(sink.hasRule(rules::kDesignDuplicateColumn));
}

TEST(DesignCheck, UnbalancedColumnRejected)
{
    const doe::DesignMatrix design = flipped(doe::pbDesign(8), 0, 0);
    check::DiagnosticSink sink;
    EXPECT_FALSE(check::checkDesignMatrix(design, {}, sink));
    EXPECT_TRUE(sink.hasRule(rules::kDesignColumnBalance));
}

TEST(DesignCheck, BrokenFoldoverHalfRejected)
{
    // Flip one entry in the mirror half: the row is no longer the
    // exact complement of its partner.
    const doe::DesignMatrix folded = doe::foldover(doe::pbDesign(8));
    const doe::DesignMatrix broken =
        flipped(folded, folded.numRows() - 1, 2);
    check::DiagnosticSink sink;
    check::DesignCheckOptions options;
    options.requireFoldover = true;
    EXPECT_FALSE(check::checkDesignMatrix(broken, options, sink));
    EXPECT_TRUE(sink.hasRule(rules::kDesignFoldoverComplement));
}

TEST(DesignCheck, FoldoverWithOddRunsRejected)
{
    const doe::DesignMatrix design = doe::DesignMatrix::fromSigns({
        {+1},
        {-1},
        {+1},
    });
    check::DiagnosticSink sink;
    check::DesignCheckOptions options;
    options.requireFoldover = true;
    EXPECT_FALSE(check::checkDesignMatrix(design, options, sink));
    EXPECT_TRUE(sink.hasRule(rules::kDesignFoldoverOddRuns));
}

TEST(DesignCheck, FactorCountMismatchRejected)
{
    const doe::DesignMatrix design = doe::pbDesign(8); // 7 columns
    check::DiagnosticSink sink;
    check::DesignCheckOptions options;
    options.expectedFactors = 43;
    EXPECT_FALSE(check::checkDesignMatrix(design, options, sink));
    EXPECT_TRUE(sink.hasRule(rules::kDesignFactorCount));
}

TEST(DesignCheck, NonMultipleOfFourRunsRejected)
{
    const doe::DesignMatrix design = doe::DesignMatrix::fromSigns({
        {+1, +1},
        {+1, -1},
        {-1, +1},
        {-1, -1},
        {+1, +1},
        {-1, -1},
    });
    check::DiagnosticSink sink;
    EXPECT_FALSE(check::checkDesignMatrix(design, {}, sink));
    EXPECT_TRUE(sink.hasRule(rules::kDesignRunsNotMultipleOfFour));
}

TEST(DesignCheck, TooManyFactorsForRunCountRejected)
{
    // 4 runs can screen at most 3 factors; build 4 columns by
    // duplicating — capacity is reported alongside the aliasing.
    const doe::DesignMatrix design = doe::DesignMatrix::fromSigns({
        {+1, +1, +1, +1},
        {+1, -1, +1, -1},
        {-1, +1, -1, +1},
        {-1, -1, -1, -1},
    });
    check::DiagnosticSink sink;
    EXPECT_FALSE(check::checkDesignMatrix(design, {}, sink));
    EXPECT_TRUE(sink.hasRule(rules::kDesignTooManyFactors));
}

TEST(DesignCheck, AllProblemsReportedNotJustFirst)
{
    // One flipped entry in a folded design breaks the complement,
    // the balance of its column, and orthogonality against others.
    const doe::DesignMatrix broken =
        flipped(doe::foldover(doe::pbDesign(8)), 9, 0);
    check::DiagnosticSink sink;
    check::DesignCheckOptions options;
    options.requireFoldover = true;
    EXPECT_FALSE(check::checkDesignMatrix(broken, options, sink));
    EXPECT_TRUE(sink.hasRule(rules::kDesignFoldoverComplement));
    EXPECT_TRUE(sink.hasRule(rules::kDesignColumnBalance));
    EXPECT_TRUE(sink.hasRule(rules::kDesignOrthogonality));
    EXPECT_GE(sink.errorCount(), 3u);
}
