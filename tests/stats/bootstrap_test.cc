#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "stats/bootstrap.hh"

namespace stats = rigor::stats;

namespace
{

double
meanOf(std::span<const double> xs)
{
    return std::accumulate(xs.begin(), xs.end(), 0.0) /
           static_cast<double>(xs.size());
}

} // namespace

TEST(BootstrapRng, SplitMix64KnownStream)
{
    // Reference values of the SplitMix64 stream seeded with 1234567
    // (Vigna's public-domain test vectors).
    stats::BootstrapRng rng(1234567);
    EXPECT_EQ(rng.next(), 6457827717110365317ULL);
    EXPECT_EQ(rng.next(), 3203168211198807973ULL);
    EXPECT_EQ(rng.next(), 9817491932198370423ULL);
}

TEST(BootstrapRng, NextBelowStaysInBound)
{
    stats::BootstrapRng rng(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(7), 7u);
}

TEST(BootstrapRng, MixSeedSeparatesStreams)
{
    EXPECT_NE(stats::mixSeed(1, 0), stats::mixSeed(1, 1));
    EXPECT_NE(stats::mixSeed(1, 0), stats::mixSeed(2, 0));
}

TEST(Bootstrap, QuantileSortedInterpolates)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::quantileSorted(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(stats::quantileSorted(xs, 1.0), 4.0);
    // R type 7: h = (n-1)p = 1.5 at the median.
    EXPECT_DOUBLE_EQ(stats::quantileSorted(xs, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(stats::quantileSorted(xs, 0.25), 1.75);
}

TEST(Bootstrap, OptionsValidateRejectsMalformed)
{
    stats::BootstrapOptions options;
    options.iterations = 0;
    EXPECT_THROW(options.validate(), std::invalid_argument);
    options = {};
    options.confidence = 1.0;
    EXPECT_THROW(options.validate(), std::invalid_argument);
    options.confidence = 0.0;
    EXPECT_THROW(options.validate(), std::invalid_argument);
    options = {};
    EXPECT_NO_THROW(options.validate());
}

TEST(Bootstrap, SingleObservationDegenerates)
{
    const std::vector<double> xs = {5.0};
    const stats::BootstrapInterval ci =
        stats::bootstrapMeanCi(xs, {});
    EXPECT_DOUBLE_EQ(ci.estimate, 5.0);
    EXPECT_DOUBLE_EQ(ci.lower, 5.0);
    EXPECT_DOUBLE_EQ(ci.upper, 5.0);
    EXPECT_DOUBLE_EQ(ci.halfWidth(), 0.0);
}

TEST(Bootstrap, ConstantSampleHasZeroWidth)
{
    const std::vector<double> xs = {3.0, 3.0, 3.0, 3.0};
    const stats::BootstrapInterval ci =
        stats::bootstrapMeanCi(xs, {});
    EXPECT_DOUBLE_EQ(ci.estimate, 3.0);
    EXPECT_DOUBLE_EQ(ci.lower, 3.0);
    EXPECT_DOUBLE_EQ(ci.upper, 3.0);
}

TEST(Bootstrap, IntervalBracketsTheEstimate)
{
    const std::vector<double> xs = {9.2, 10.1, 9.8, 10.4, 9.5,
                                    10.0, 9.9, 10.2, 9.7, 10.3};
    for (const stats::BootstrapMethod method :
         {stats::BootstrapMethod::Percentile,
          stats::BootstrapMethod::Bca}) {
        stats::BootstrapOptions options;
        options.method = method;
        const stats::BootstrapInterval ci =
            stats::bootstrapMeanCi(xs, options);
        EXPECT_NEAR(ci.estimate, meanOf(xs), 1e-12);
        EXPECT_LE(ci.lower, ci.estimate);
        EXPECT_GE(ci.upper, ci.estimate);
        EXPECT_GT(ci.upper, ci.lower);
    }
}

TEST(Bootstrap, DeterministicForFixedSeed)
{
    const std::vector<double> xs = {1.0, 4.0, 2.0, 8.0, 5.0, 7.0};
    stats::BootstrapOptions options;
    options.seed = 99;
    const stats::BootstrapInterval a =
        stats::bootstrapMeanCi(xs, options);
    const stats::BootstrapInterval b =
        stats::bootstrapMeanCi(xs, options);
    EXPECT_DOUBLE_EQ(a.lower, b.lower);
    EXPECT_DOUBLE_EQ(a.upper, b.upper);
    // Different seeds draw different resamples (the intervals
    // themselves may coincide — quantiles of a small discrete
    // distribution — so assert on the index stream).
    stats::BootstrapRng rng99(stats::mixSeed(99, 0));
    stats::BootstrapRng rng100(stats::mixSeed(100, 0));
    std::vector<std::size_t> draws99(16);
    std::vector<std::size_t> draws100(16);
    stats::resampleIndices(rng99, xs.size(), draws99);
    stats::resampleIndices(rng100, xs.size(), draws100);
    EXPECT_NE(draws99, draws100);
}

TEST(Bootstrap, GoldenCiVectors)
{
    // Golden regression values: any change to the resampling or
    // interval construction must be deliberate and re-baselined.
    const std::vector<double> xs = {1.0, 4.0, 2.0, 8.0, 5.0, 7.0};
    stats::BootstrapOptions options;
    options.iterations = 200;
    options.seed = 7;
    options.method = stats::BootstrapMethod::Percentile;
    const stats::BootstrapInterval p =
        stats::bootstrapMeanCi(xs, options);
    EXPECT_DOUBLE_EQ(p.estimate, 4.5);
    EXPECT_DOUBLE_EQ(p.lower, 2.8333333333333335);
    EXPECT_DOUBLE_EQ(p.upper, 6.5041666666666673);
    options.method = stats::BootstrapMethod::Bca;
    const stats::BootstrapInterval b =
        stats::bootstrapMeanCi(xs, options);
    EXPECT_DOUBLE_EQ(b.estimate, 4.5);
    EXPECT_DOUBLE_EQ(b.lower, 2.8333333333333335);
    EXPECT_DOUBLE_EQ(b.upper, 6.5);
}

TEST(Bootstrap, MedianStatisticWorks)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 100.0};
    const stats::StatisticFn median =
        [](std::span<const double> sample) {
            std::vector<double> sorted(sample.begin(), sample.end());
            std::sort(sorted.begin(), sorted.end());
            return stats::quantileSorted(sorted, 0.5);
        };
    const stats::BootstrapInterval ci =
        stats::bootstrapCi(xs, median, {});
    EXPECT_DOUBLE_EQ(ci.estimate, 3.0);
    EXPECT_LE(ci.lower, ci.upper);
}

TEST(Bootstrap, BcaShiftsSkewedInterval)
{
    // Heavily right-skewed sample: BCa corrects the percentile
    // interval toward the long tail.
    const std::vector<double> xs = {1.0, 1.1, 1.2, 1.3, 1.4,
                                    1.5, 1.6, 1.7, 1.8, 50.0};
    stats::BootstrapOptions percentile;
    percentile.method = stats::BootstrapMethod::Percentile;
    stats::BootstrapOptions bca;
    bca.method = stats::BootstrapMethod::Bca;
    const stats::BootstrapInterval p =
        stats::bootstrapMeanCi(xs, percentile);
    const stats::BootstrapInterval b =
        stats::bootstrapMeanCi(xs, bca);
    EXPECT_NE(p.lower, b.lower);
    EXPECT_LE(b.lower, b.estimate);
    EXPECT_GE(b.upper, b.estimate);
}

TEST(Bootstrap, ReplicationOptionsEnabled)
{
    stats::ReplicationOptions replication;
    EXPECT_FALSE(replication.enabled());
    replication.replicates = 3;
    EXPECT_TRUE(replication.enabled());
}
