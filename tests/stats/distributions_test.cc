#include <gtest/gtest.h>

#include <cmath>

#include "stats/distributions.hh"

namespace stats = rigor::stats;

// ---------------------------------------------------------------------
// Normal
// ---------------------------------------------------------------------

TEST(NormalDistribution, CdfKnownValues)
{
    const stats::NormalDistribution n;
    EXPECT_NEAR(n.cdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(n.cdf(1.959963985), 0.975, 1e-8);
    EXPECT_NEAR(n.cdf(-1.644853627), 0.05, 1e-8);
}

TEST(NormalDistribution, QuantileInvertsCdf)
{
    const stats::NormalDistribution n;
    for (double p : {0.01, 0.1, 0.5, 0.9, 0.975})
        EXPECT_NEAR(n.cdf(n.quantile(p)), p, 1e-9);
}

TEST(NormalDistribution, QuantileRejectsBadP)
{
    const stats::NormalDistribution n;
    EXPECT_THROW(n.quantile(0.0), std::invalid_argument);
    EXPECT_THROW(n.quantile(1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Student's t
// ---------------------------------------------------------------------

TEST(StudentT, CdfSymmetry)
{
    const stats::StudentTDistribution t(7.0);
    EXPECT_NEAR(t.cdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(t.cdf(1.3) + t.cdf(-1.3), 1.0, 1e-12);
}

TEST(StudentT, KnownCriticalValues)
{
    // Classical two-sided 95% critical values.
    const stats::StudentTDistribution t10(10.0);
    EXPECT_NEAR(t10.quantile(0.975), 2.228, 2e-3);
    const stats::StudentTDistribution t30(30.0);
    EXPECT_NEAR(t30.quantile(0.975), 2.042, 2e-3);
    const stats::StudentTDistribution t1(1.0);
    // t with 1 dof is Cauchy: 97.5% point is 12.706.
    EXPECT_NEAR(t1.quantile(0.975), 12.706, 5e-3);
}

TEST(StudentT, ApproachesNormalForLargeDof)
{
    const stats::StudentTDistribution t(100000.0);
    const stats::NormalDistribution n;
    EXPECT_NEAR(t.cdf(1.5), n.cdf(1.5), 1e-4);
}

TEST(StudentT, RejectsBadDof)
{
    EXPECT_THROW(stats::StudentTDistribution(0.0),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Confidence intervals
// ---------------------------------------------------------------------

TEST(ConfidenceInterval, MatchesHandComputation)
{
    // n = 16, mean = 10, s = 2: 95% CI = 10 +/- 2.131 * 2 / 4.
    const stats::ConfidenceInterval ci =
        stats::meanConfidenceInterval(10.0, 2.0, 16, 0.95);
    EXPECT_NEAR(ci.low, 10.0 - 2.131 * 0.5, 2e-3);
    EXPECT_NEAR(ci.high, 10.0 + 2.131 * 0.5, 2e-3);
}

TEST(ConfidenceInterval, WiderAtHigherConfidence)
{
    const stats::ConfidenceInterval c90 =
        stats::meanConfidenceInterval(0.0, 1.0, 10, 0.90);
    const stats::ConfidenceInterval c99 =
        stats::meanConfidenceInterval(0.0, 1.0, 10, 0.99);
    EXPECT_LT(c90.high - c90.low, c99.high - c99.low);
}

TEST(ConfidenceInterval, RejectsBadInputs)
{
    EXPECT_THROW(stats::meanConfidenceInterval(0.0, 1.0, 1, 0.95),
                 std::invalid_argument);
    EXPECT_THROW(stats::meanConfidenceInterval(0.0, 1.0, 10, 1.0),
                 std::invalid_argument);
}
