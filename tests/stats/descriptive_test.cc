#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.hh"

namespace stats = rigor::stats;

TEST(Descriptive, MeanOfKnownSequence)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
}

TEST(Descriptive, MeanOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
}

TEST(Descriptive, MeanOfSingleton)
{
    const std::vector<double> xs = {7.25};
    EXPECT_DOUBLE_EQ(stats::mean(xs), 7.25);
}

TEST(Descriptive, SampleVarianceUsesBessel)
{
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0,
                                    9.0};
    // Sum of squared deviations about mean 5 is 32; n-1 = 7.
    EXPECT_NEAR(stats::variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Descriptive, VarianceOfConstantIsZero)
{
    const std::vector<double> xs = {3.0, 3.0, 3.0};
    EXPECT_DOUBLE_EQ(stats::variance(xs), 0.0);
}

TEST(Descriptive, VarianceNeedsTwoObservations)
{
    const std::vector<double> xs = {3.0};
    EXPECT_DOUBLE_EQ(stats::variance(xs), 0.0);
}

TEST(Descriptive, StddevIsRootOfVariance)
{
    const std::vector<double> xs = {1.0, 5.0};
    EXPECT_NEAR(stats::stddev(xs), std::sqrt(8.0), 1e-12);
}

TEST(Descriptive, MedianOddAndEven)
{
    const std::vector<double> odd = {9.0, 1.0, 5.0};
    EXPECT_DOUBLE_EQ(stats::median(odd), 5.0);
    const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(stats::median(even), 2.5);
}

TEST(Descriptive, SumOfMixedSigns)
{
    const std::vector<double> xs = {3.0, -1.0, 7.5, 0.0};
    EXPECT_DOUBLE_EQ(stats::sum(xs), 9.5);
}

TEST(Descriptive, KahanSumIsAccurate)
{
    // 1 followed by many tiny values that naive summation would drop.
    std::vector<double> xs(10001, 1e-16);
    xs[0] = 1.0;
    EXPECT_NEAR(stats::sum(xs), 1.0 + 1e-12, 1e-15);
}

TEST(Descriptive, RanksWithoutTies)
{
    const std::vector<double> xs = {30.0, 10.0, 20.0};
    const std::vector<double> r = stats::ranks(xs);
    EXPECT_EQ(r, (std::vector<double>{3.0, 1.0, 2.0}));
}

TEST(Descriptive, RanksWithTiesUseMidranks)
{
    const std::vector<double> xs = {10.0, 20.0, 20.0, 30.0};
    const std::vector<double> r = stats::ranks(xs);
    EXPECT_EQ(r, (std::vector<double>{1.0, 2.5, 2.5, 4.0}));
}

