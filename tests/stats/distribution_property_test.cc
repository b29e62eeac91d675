/**
 * @file
 * Parameterized property sweeps over the statistical distributions:
 * quantile/CDF round-trips and monotonicity across a grid of degrees
 * of freedom.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/distributions.hh"

namespace stats = rigor::stats;

namespace
{

class TDofSweep : public ::testing::TestWithParam<double>
{
};

} // namespace

TEST_P(TDofSweep, QuantileCdfRoundTrip)
{
    const stats::StudentTDistribution t(GetParam());
    // Quantiles come from bisection with a relative-width stop, so
    // round-trip agreement is ~1e-7 near the distribution center.
    for (double p : {0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99})
        EXPECT_NEAR(t.cdf(t.quantile(p)), p, 1e-6) << p;
}

TEST_P(TDofSweep, CdfIsMonotone)
{
    const stats::StudentTDistribution t(GetParam());
    double prev = 0.0;
    for (double x = -8.0; x <= 8.0; x += 0.25) {
        const double c = t.cdf(x);
        EXPECT_GE(c, prev);
        prev = c;
    }
}

INSTANTIATE_TEST_SUITE_P(Dofs, TDofSweep,
                         ::testing::Values(1.0, 2.0, 3.0, 5.0, 10.0,
                                           30.0, 120.0));
