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
// F distribution
// ---------------------------------------------------------------------

TEST(FDistribution, KnownCriticalValues)
{
    // F(1, 10) 95th percentile = 4.965; F(5, 20) = 2.711.
    const stats::FDistribution f1(1.0, 10.0);
    EXPECT_NEAR(f1.cdf(4.965), 0.95, 1e-4);
    const stats::FDistribution f2(5.0, 20.0);
    EXPECT_NEAR(f2.cdf(2.711), 0.95, 1e-4);
}

TEST(FDistribution, CdfIsZeroAtOrBelowZero)
{
    const stats::FDistribution f(3.0, 8.0);
    EXPECT_DOUBLE_EQ(f.cdf(0.0), 0.0);
    EXPECT_DOUBLE_EQ(f.cdf(-1.0), 0.0);
}

TEST(FDistribution, SurvivalComplementsCdf)
{
    const stats::FDistribution f(4.0, 12.0);
    for (double x : {0.5, 1.0, 2.5, 10.0})
        EXPECT_NEAR(f.cdf(x) + f.survival(x), 1.0, 1e-12);
}

TEST(FDistribution, ReciprocalSymmetry)
{
    // P(F_{a,b} <= x) = P(F_{b,a} >= 1/x).
    const stats::FDistribution fab(3.0, 9.0);
    const stats::FDistribution fba(9.0, 3.0);
    for (double x : {0.5, 1.0, 2.0})
        EXPECT_NEAR(fab.cdf(x), fba.survival(1.0 / x), 1e-10);
}

TEST(FDistribution, SquaredTEqualsF)
{
    // If T ~ t(v) then T^2 ~ F(1, v).
    const stats::StudentTDistribution t(8.0);
    const stats::FDistribution f(1.0, 8.0);
    const double x = 2.0;
    EXPECT_NEAR(f.cdf(x * x), 2.0 * t.cdf(x) - 1.0, 1e-10);
}

TEST(FDistribution, RejectsBadDof)
{
    EXPECT_THROW(stats::FDistribution(0.0, 5.0), std::invalid_argument);
    EXPECT_THROW(stats::FDistribution(5.0, -1.0),
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
