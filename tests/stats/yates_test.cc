#include <gtest/gtest.h>

#include <vector>

#include "stats/yates.hh"

namespace stats = rigor::stats;

TEST(Yates, SingleFactor)
{
    // Responses: low = 10, high = 14. Total 24, contrast 4.
    const std::vector<double> responses = {10.0, 14.0};
    const std::vector<double> c = stats::yatesContrasts(responses);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_DOUBLE_EQ(c[0], 24.0);
    EXPECT_DOUBLE_EQ(c[1], 4.0);
}

TEST(Yates, TwoFactorsStandardOrder)
{
    // Standard order (1), a, b, ab.
    const std::vector<double> responses = {1.0, 3.0, 5.0, 11.0};
    const std::vector<double> c = stats::yatesContrasts(responses);
    ASSERT_EQ(c.size(), 4u);
    EXPECT_DOUBLE_EQ(c[0], 20.0);                  // total
    EXPECT_DOUBLE_EQ(c[1], (3 - 1) + (11 - 5));    // A = 8
    EXPECT_DOUBLE_EQ(c[2], (5 + 11) - (1 + 3));    // B = 12
    EXPECT_DOUBLE_EQ(c[3], (11 - 5) - (3 - 1));    // AB = 4
}

TEST(Yates, ThreeFactorsAgainstDirectContrasts)
{
    const std::vector<double> y = {3.0, 7.0, 1.0, 9.0,
                                   2.0, 8.0, 5.0, 13.0};
    const std::vector<double> c = stats::yatesContrasts(y);
    ASSERT_EQ(c.size(), 8u);

    // Direct computation: contrast for mask m is
    // sum over i of y[i] * prod_{j in m} sign_j(i).
    for (std::uint32_t m = 0; m < 8; ++m) {
        double expected = 0.0;
        for (std::uint32_t i = 0; i < 8; ++i) {
            int sign = 1;
            for (std::uint32_t j = 0; j < 3; ++j)
                if (m & (1u << j))
                    sign *= (i & (1u << j)) ? 1 : -1;
            expected += sign * y[i];
        }
        EXPECT_DOUBLE_EQ(c[m], expected) << "mask " << m;
    }
}

TEST(Yates, PureAdditiveModelHasNoInteractions)
{
    // y = 10 + 2*a + 5*b + 1*c (a, b, c in {0, 1}).
    std::vector<double> y(8);
    for (std::uint32_t i = 0; i < 8; ++i)
        y[i] = 10.0 + 2.0 * ((i >> 0) & 1) + 5.0 * ((i >> 1) & 1) +
               1.0 * ((i >> 2) & 1);
    const std::vector<double> c = stats::yatesContrasts(y);
    // All interaction contrasts (popcount >= 2) vanish.
    for (std::uint32_t m = 0; m < 8; ++m) {
        if (stats::contrastOrder(m) >= 2) {
            EXPECT_NEAR(c[m], 0.0, 1e-12) << "mask " << m;
        }
    }
    // Main effect contrasts = coefficient * 2^(k-1).
    EXPECT_DOUBLE_EQ(c[1], 2.0 * 4);
    EXPECT_DOUBLE_EQ(c[2], 5.0 * 4);
    EXPECT_DOUBLE_EQ(c[4], 1.0 * 4);
}

TEST(Yates, RejectsNonPowerOfTwo)
{
    const std::vector<double> y = {1.0, 2.0, 3.0};
    EXPECT_THROW(stats::yatesContrasts(y), std::invalid_argument);
    EXPECT_THROW(stats::yatesContrasts({}), std::invalid_argument);
}

TEST(Yates, ContrastLabels)
{
    const std::vector<std::string> names = {"A", "B", "C"};
    EXPECT_EQ(stats::contrastLabel(0, names), "mean");
    EXPECT_EQ(stats::contrastLabel(1, names), "A");
    EXPECT_EQ(stats::contrastLabel(6, names), "B*C");
    EXPECT_EQ(stats::contrastLabel(7, names), "A*B*C");
}

TEST(Yates, ContrastOrder)
{
    EXPECT_EQ(stats::contrastOrder(0), 0u);
    EXPECT_EQ(stats::contrastOrder(1), 1u);
    EXPECT_EQ(stats::contrastOrder(7), 3u);
    EXPECT_EQ(stats::contrastOrder(0b1010), 2u);
}
