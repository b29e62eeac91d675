#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stats/anova.hh"

namespace stats = rigor::stats;

namespace
{

const std::vector<std::string> twoNames = {"A", "B"};
const std::vector<std::string> threeNames = {"A", "B", "C"};

} // namespace

TEST(Anova, EffectsMatchDefinition)
{
    // Standard order (1), a, b, ab.
    const std::vector<double> y = {10.0, 14.0, 20.0, 28.0};
    const stats::AnovaResult r = stats::analyzeFactorial(twoNames, y);

    EXPECT_EQ(r.numFactors, 2u);
    EXPECT_DOUBLE_EQ(r.grandMean, 18.0);
    // Effect of A = avg(high) - avg(low) = (14+28)/2 - (10+20)/2 = 6.
    EXPECT_DOUBLE_EQ(r.row("A").effect, 6.0);
    EXPECT_DOUBLE_EQ(r.row("B").effect, 12.0);
    EXPECT_DOUBLE_EQ(r.row("A*B").effect, 2.0);
}

TEST(Anova, SumsOfSquaresDecomposeTotal)
{
    const std::vector<double> y = {3.0, 9.0, 4.0, 16.0, 7.0, 2.0, 8.0,
                                   5.0};
    const stats::AnovaResult r = stats::analyzeFactorial(threeNames, y);

    double model_ss = 0.0;
    for (const stats::AnovaRow &row : r.rows)
        model_ss += row.sumSquares;
    // Unreplicated: total SS about the mean equals the model SS.
    double total = 0.0;
    for (double v : y)
        total += (v - r.grandMean) * (v - r.grandMean);
    EXPECT_NEAR(model_ss, total, 1e-9);
    EXPECT_NEAR(r.totalSumSquares, total, 1e-9);
}

TEST(Anova, VariationSharesSumToOne)
{
    const std::vector<double> y = {3.0, 9.0, 4.0, 16.0, 7.0, 2.0, 8.0,
                                   5.0};
    const stats::AnovaResult r = stats::analyzeFactorial(threeNames, y);
    double share = 0.0;
    for (const stats::AnovaRow &row : r.rows)
        share += row.variationExplained;
    EXPECT_NEAR(share, 1.0, 1e-12);
}

TEST(Anova, AdditiveModelAttributesToMainEffects)
{
    // y = 5 + 3a + 8b, no noise: interaction SS must vanish.
    std::vector<double> y(4);
    for (unsigned i = 0; i < 4; ++i)
        y[i] = 5.0 + 3.0 * (i & 1) + 8.0 * ((i >> 1) & 1);
    const stats::AnovaResult r = stats::analyzeFactorial(twoNames, y);
    EXPECT_NEAR(r.row("A*B").sumSquares, 0.0, 1e-12);
    EXPECT_GT(r.row("B").variationExplained,
              r.row("A").variationExplained);
}

TEST(Anova, RowsBySignificanceSorted)
{
    const std::vector<double> y = {3.0, 9.0, 4.0, 16.0, 7.0, 2.0, 8.0,
                                   5.0};
    const stats::AnovaResult r = stats::analyzeFactorial(threeNames, y);
    const std::vector<stats::AnovaRow> sorted = r.rowsBySignificance();
    for (std::size_t i = 1; i < sorted.size(); ++i)
        EXPECT_GE(sorted[i - 1].variationExplained,
                  sorted[i].variationExplained);
}

TEST(Anova, RejectsWrongResponseCount)
{
    const std::vector<double> y = {1.0, 2.0, 3.0};
    EXPECT_THROW(stats::analyzeFactorial(twoNames, y),
                 std::invalid_argument);
}

TEST(Anova, RowLookupThrowsOnUnknown)
{
    const std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
    const stats::AnovaResult r = stats::analyzeFactorial(twoNames, y);
    EXPECT_THROW(r.row("Z"), std::invalid_argument);
}

TEST(Anova, FormatContainsTerms)
{
    const std::vector<double> y = {1.0, 2.0, 3.0, 5.0};
    const stats::AnovaResult r = stats::analyzeFactorial(twoNames, y);
    const std::string table = stats::formatAnovaTable(r);
    EXPECT_NE(table.find("A*B"), std::string::npos);
    EXPECT_NE(table.find("Var%"), std::string::npos);
}
