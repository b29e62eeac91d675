#include <gtest/gtest.h>

#include "doe/pb_design.hh"

namespace doe = rigor::doe;

TEST(PbDesign, RunsForFactorCount)
{
    // "The next multiple of four greater than N."
    EXPECT_EQ(doe::pbRuns(1), 4u);
    EXPECT_EQ(doe::pbRuns(3), 4u);
    EXPECT_EQ(doe::pbRuns(4), 8u);
    EXPECT_EQ(doe::pbRuns(7), 8u);
    EXPECT_EQ(doe::pbRuns(8), 12u);
    EXPECT_EQ(doe::pbRuns(43), 44u); // the paper's case
    EXPECT_THROW(doe::pbRuns(0), std::invalid_argument);
}

TEST(PbDesign, GeneratorRowMatchesPublishedX8)
{
    // Table 2 first row: +1 +1 +1 -1 +1 -1 -1.
    EXPECT_EQ(doe::pbGeneratorRow(8),
              (std::vector<int>{1, 1, 1, -1, 1, -1, -1}));
}

TEST(PbDesign, GeneratorRowMatchesPublishedX12)
{
    // Plackett-Burman published row for N = 12.
    EXPECT_EQ(doe::pbGeneratorRow(12),
              (std::vector<int>{1, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1}));
}

TEST(PbDesign, GeneratorRowMatchesPublishedX20)
{
    EXPECT_EQ(doe::pbGeneratorRow(20),
              (std::vector<int>{1, 1, -1, -1, 1, 1, 1, 1, -1, 1, -1, 1,
                                -1, -1, -1, -1, 1, 1, -1}));
}

TEST(PbDesign, GeneratorRowMatchesPublishedX24)
{
    EXPECT_EQ(doe::pbGeneratorRow(24),
              (std::vector<int>{1, 1, 1, 1,  1,  -1, 1,  -1, 1, 1, -1,
                                -1, 1, 1, -1, -1, 1,  -1, 1,  -1, -1,
                                -1, -1}));
}

TEST(PbDesign, Table2MatrixExact)
{
    // The paper's Table 2 (X = 8), all 8 rows.
    const doe::DesignMatrix expected = doe::DesignMatrix::fromSigns({
        {+1, +1, +1, -1, +1, -1, -1},
        {-1, +1, +1, +1, -1, +1, -1},
        {-1, -1, +1, +1, +1, -1, +1},
        {+1, -1, -1, +1, +1, +1, -1},
        {-1, +1, -1, -1, +1, +1, +1},
        {+1, -1, +1, -1, -1, +1, +1},
        {+1, +1, -1, +1, -1, -1, +1},
        {-1, -1, -1, -1, -1, -1, -1},
    });
    EXPECT_TRUE(doe::pbDesign(8) == expected);
}

namespace
{

class PbDesignSizes : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(PbDesignSizes, BalancedAndOrthogonal)
{
    const unsigned x = GetParam();
    const doe::DesignMatrix m = doe::pbDesign(x);
    EXPECT_EQ(m.numRows(), x);
    EXPECT_EQ(m.numColumns(), x - 1);
    // The two properties that make a saturated design work: every
    // factor is high in exactly half the runs, and any two factor
    // columns are uncorrelated.
    EXPECT_TRUE(m.isBalanced());
    EXPECT_TRUE(m.isOrthogonal());
}

// Every size X <= 84 with X - 1 a prime congruent to 3 (mod 4).
INSTANTIATE_TEST_SUITE_P(AllSupportedSizes, PbDesignSizes,
                         ::testing::Values(8u, 12u, 20u, 24u, 32u, 44u,
                                           48u, 60u, 68u, 72u, 80u,
                                           84u));

TEST(PbDesign, CyclicLayoutLastRowAllLow)
{
    for (unsigned x : {8u, 12u, 44u}) {
        const doe::DesignMatrix m = doe::pbDesign(x);
        for (std::size_t c = 0; c < m.numColumns(); ++c)
            EXPECT_EQ(m.at(x - 1, c), doe::Level::Low);
    }
}

TEST(PbDesign, CyclicRowsAreRightShifts)
{
    const doe::DesignMatrix m = doe::pbDesign(12);
    for (std::size_t r = 1; r + 1 < m.numRows(); ++r)
        for (std::size_t c = 0; c < m.numColumns(); ++c)
            EXPECT_EQ(m.sign(r, c),
                      m.sign(r - 1, (c + m.numColumns() - 1) %
                                        m.numColumns()))
                << "row " << r << " col " << c;
}

TEST(PbDesign, RejectsBadSizes)
{
    EXPECT_THROW(doe::pbDesign(7), std::invalid_argument);
    EXPECT_THROW(doe::pbDesign(4), std::invalid_argument);
    EXPECT_THROW(doe::pbDesign(0), std::invalid_argument);
    // Multiples of four whose X - 1 is not a prime congruent to 3
    // (mod 4) have no quadratic-residue generator.
    for (unsigned x : {16u, 28u, 36u, 40u, 52u, 92u})
        EXPECT_THROW(doe::pbDesign(x), std::invalid_argument) << x;
}

TEST(PbDesign, DesignForFactorsSkipsUnsupported)
{
    // 43 factors -> the paper's X = 44 design.
    const doe::DesignMatrix m = doe::pbDesignForFactors(43);
    EXPECT_EQ(m.numRows(), 44u);
    // 12 factors -> 16 unsupported -> 20.
    EXPECT_EQ(doe::pbDesignForFactors(12).numRows(), 20u);
    // 89 factors -> 92, 96 and 100 unsupported -> 104.
    const doe::DesignMatrix big = doe::pbDesignForFactors(89);
    EXPECT_EQ(big.numRows(), 104u);
    EXPECT_TRUE(big.isOrthogonal());
    // Every factor count up to the X = 84 design gets a saturated,
    // balanced, orthogonal design with room for all its factors.
    for (unsigned n = 1; n <= 83; ++n) {
        const doe::DesignMatrix d = doe::pbDesignForFactors(n);
        EXPECT_GE(d.numRows(), doe::pbRuns(n)) << n;
        EXPECT_EQ(d.numColumns(), d.numRows() - 1) << n;
        EXPECT_TRUE(d.isBalanced()) << n;
        EXPECT_TRUE(d.isOrthogonal()) << n;
    }
}

TEST(PbDesign, GeneratorRowThrowsWhenNonCyclic)
{
    EXPECT_THROW(doe::pbGeneratorRow(28), std::invalid_argument);
}
