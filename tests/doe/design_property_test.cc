/**
 * @file
 * Parameterized design-of-experiments property sweeps: exact
 * coefficient recovery on the PB design sizes up to X = 48, and the
 * projection property (any two columns of a PB design form a full
 * 2^2 factorial, replicated X/4 times).
 */

#include <gtest/gtest.h>

#include <map>

#include "doe/effects.hh"
#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "trace/rng.hh"

namespace doe = rigor::doe;
namespace trace = rigor::trace;

namespace
{

class DesignSizeSweep : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(DesignSizeSweep, LinearCoefficientRecoveryIsExact)
{
    const unsigned x = GetParam();
    const doe::DesignMatrix design = doe::pbDesign(x);

    // Random linear truth over all columns.
    trace::Rng rng(x * 2654435761u);
    std::vector<double> coeffs;
    for (std::size_t c = 0; c < design.numColumns(); ++c)
        coeffs.push_back(rng.nextDouble() * 20.0 - 10.0);

    std::vector<double> responses;
    for (std::size_t r = 0; r < design.numRows(); ++r) {
        double y = 1000.0;
        for (std::size_t c = 0; c < design.numColumns(); ++c)
            y += coeffs[c] * design.sign(r, c);
        responses.push_back(y);
    }

    const std::vector<double> effects =
        doe::computeNormalizedEffects(design, responses);
    for (std::size_t c = 0; c < coeffs.size(); ++c)
        EXPECT_NEAR(effects[c], 2.0 * coeffs[c], 1e-9)
            << "X=" << x << " col " << c;
}

TEST_P(DesignSizeSweep, ProjectionOntoTwoFactorsIsFullFactorial)
{
    // Projectivity 2: restricted to any pair of columns, a PB design
    // contains every (+-, +-) combination exactly X/4 times. This is
    // what makes the estimates of any two factors jointly clean.
    const unsigned x = GetParam();
    const doe::DesignMatrix design = doe::pbDesign(x);
    const std::size_t cols = design.numColumns();
    // Sample pairs (full O(cols^2) sweep on the small sizes).
    for (std::size_t a = 0; a < cols; a += cols / 6 + 1) {
        for (std::size_t b = a + 1; b < cols; b += cols / 5 + 1) {
            std::map<std::pair<int, int>, unsigned> counts;
            for (std::size_t r = 0; r < design.numRows(); ++r)
                ++counts[{design.sign(r, a), design.sign(r, b)}];
            ASSERT_EQ(counts.size(), 4u);
            for (const auto &[combo, count] : counts)
                EXPECT_EQ(count, x / 4)
                    << "X=" << x << " cols " << a << "," << b;
        }
    }
}

TEST_P(DesignSizeSweep, FoldedDesignStillRecoversCoefficients)
{
    const unsigned x = GetParam();
    const doe::DesignMatrix folded = doe::foldover(doe::pbDesign(x));
    trace::Rng rng(x);
    std::vector<double> coeffs;
    for (std::size_t c = 0; c < folded.numColumns(); ++c)
        coeffs.push_back(rng.nextDouble() * 4.0);
    std::vector<double> responses;
    for (std::size_t r = 0; r < folded.numRows(); ++r) {
        double y = 0.0;
        for (std::size_t c = 0; c < folded.numColumns(); ++c)
            y += coeffs[c] * folded.sign(r, c);
        responses.push_back(y);
    }
    const std::vector<double> effects =
        doe::computeNormalizedEffects(folded, responses);
    for (std::size_t c = 0; c < coeffs.size(); ++c)
        EXPECT_NEAR(effects[c], 2.0 * coeffs[c], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DesignSizeSweep,
                         ::testing::Values(8u, 12u, 20u, 24u, 32u, 44u,
                                           48u));
