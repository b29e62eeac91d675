#include <gtest/gtest.h>

#include <vector>

#include "stats/correlation.hh"

namespace stats = rigor::stats;

TEST(Pearson, PerfectPositive)
{
    const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
    const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
    EXPECT_NEAR(stats::pearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegative)
{
    const std::vector<double> x = {1.0, 2.0, 3.0};
    const std::vector<double> y = {5.0, 3.0, 1.0};
    EXPECT_NEAR(stats::pearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(Pearson, KnownValue)
{
    const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
    const std::vector<double> y = {2.0, 1.0, 4.0, 3.0, 5.0};
    // r = cov/sd product: hand computed 0.8.
    EXPECT_NEAR(stats::pearsonCorrelation(x, y), 0.8, 1e-12);
}

TEST(Pearson, InvariantToAffineTransform)
{
    const std::vector<double> x = {1.0, 5.0, 2.0, 8.0};
    const std::vector<double> y = {0.3, 2.0, 1.0, 4.0};
    std::vector<double> y2;
    for (double v : y)
        y2.push_back(3.0 * v + 7.0);
    EXPECT_NEAR(stats::pearsonCorrelation(x, y),
                stats::pearsonCorrelation(x, y2), 1e-12);
}

TEST(Pearson, RejectsMismatchedLengths)
{
    const std::vector<double> x = {1.0, 2.0};
    const std::vector<double> y = {1.0, 2.0, 3.0};
    EXPECT_THROW(stats::pearsonCorrelation(x, y),
                 std::invalid_argument);
}

TEST(Pearson, RejectsConstantInput)
{
    const std::vector<double> x = {1.0, 1.0, 1.0};
    const std::vector<double> y = {1.0, 2.0, 3.0};
    EXPECT_THROW(stats::pearsonCorrelation(x, y),
                 std::invalid_argument);
}

TEST(Spearman, MonotoneNonlinearIsPerfect)
{
    const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
    const std::vector<double> y = {1.0, 8.0, 27.0, 64.0, 125.0};
    EXPECT_NEAR(stats::spearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(Spearman, ReversedIsMinusOne)
{
    const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
    const std::vector<double> y = {9.0, 7.0, 5.0, 3.0};
    EXPECT_NEAR(stats::spearmanCorrelation(x, y), -1.0, 1e-12);
}

TEST(Spearman, HandlesTies)
{
    const std::vector<double> x = {1.0, 2.0, 2.0, 4.0};
    const std::vector<double> y = {1.0, 3.0, 3.0, 4.0};
    EXPECT_NEAR(stats::spearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(Spearman, KnownTextbookValue)
{
    // d = (-1, 1, -1, 1, 0), sum d^2 = 4 over n = 5 distinct ranks:
    // rho = 1 - 6*4/(5*24) = 0.8.
    const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
    const std::vector<double> y = {2.0, 1.0, 4.0, 3.0, 5.0};
    EXPECT_NEAR(stats::spearmanCorrelation(x, y), 0.8, 1e-12);
}

