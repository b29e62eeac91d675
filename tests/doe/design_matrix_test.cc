#include <gtest/gtest.h>

#include "doe/design_matrix.hh"

namespace doe = rigor::doe;

TEST(DesignMatrix, ConstructsAllLow)
{
    const doe::DesignMatrix m(3, 2);
    EXPECT_EQ(m.numRows(), 3u);
    EXPECT_EQ(m.numColumns(), 2u);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_EQ(m.at(r, c), doe::Level::Low);
}

TEST(DesignMatrix, RejectsZeroDimensions)
{
    EXPECT_THROW(doe::DesignMatrix(0, 3), std::invalid_argument);
    EXPECT_THROW(doe::DesignMatrix(3, 0), std::invalid_argument);
}

TEST(DesignMatrix, SetAndGet)
{
    doe::DesignMatrix m(2, 2);
    m.set(0, 1, doe::Level::High);
    EXPECT_EQ(m.at(0, 1), doe::Level::High);
    EXPECT_EQ(m.sign(0, 1), 1);
    EXPECT_EQ(m.sign(0, 0), -1);
}

TEST(DesignMatrix, OutOfRangeThrows)
{
    doe::DesignMatrix m(2, 2);
    EXPECT_THROW(m.at(2, 0), std::out_of_range);
    EXPECT_THROW(m.set(0, 2, doe::Level::High), std::out_of_range);
}

TEST(DesignMatrix, FromSigns)
{
    const doe::DesignMatrix m =
        doe::DesignMatrix::fromSigns({{1, -1}, {-1, 1}});
    EXPECT_EQ(m.sign(0, 0), 1);
    EXPECT_EQ(m.sign(0, 1), -1);
    EXPECT_EQ(m.sign(1, 0), -1);
    EXPECT_EQ(m.sign(1, 1), 1);
}

TEST(DesignMatrix, FromSignsRejectsBadEntries)
{
    EXPECT_THROW(doe::DesignMatrix::fromSigns({{1, 2}}),
                 std::invalid_argument);
    EXPECT_THROW(doe::DesignMatrix::fromSigns({{1, -1}, {1}}),
                 std::invalid_argument);
    EXPECT_THROW(doe::DesignMatrix::fromSigns({}),
                 std::invalid_argument);
}

TEST(DesignMatrix, RowAndColumnAccessors)
{
    const doe::DesignMatrix m =
        doe::DesignMatrix::fromSigns({{1, -1}, {-1, 1}, {1, 1}});
    const std::vector<doe::Level> row = m.row(1);
    EXPECT_EQ(row[0], doe::Level::Low);
    EXPECT_EQ(row[1], doe::Level::High);
    EXPECT_EQ(m.sign(0, 0), 1);
    EXPECT_EQ(m.sign(1, 0), -1);
    EXPECT_EQ(m.sign(2, 0), 1);
}

TEST(DesignMatrix, BalanceDetection)
{
    const doe::DesignMatrix balanced =
        doe::DesignMatrix::fromSigns({{1, 1}, {-1, -1}});
    EXPECT_TRUE(balanced.isBalanced());
    const doe::DesignMatrix unbalanced =
        doe::DesignMatrix::fromSigns({{1, 1}, {1, -1}});
    EXPECT_FALSE(unbalanced.isBalanced());
}

TEST(DesignMatrix, OrthogonalityDetection)
{
    // 2^2 full factorial columns are orthogonal.
    const doe::DesignMatrix ortho = doe::DesignMatrix::fromSigns(
        {{-1, -1}, {1, -1}, {-1, 1}, {1, 1}});
    EXPECT_TRUE(ortho.isOrthogonal());
    EXPECT_EQ(ortho.columnDot(0, 1), 0);

    const doe::DesignMatrix copies = doe::DesignMatrix::fromSigns(
        {{1, 1}, {-1, -1}, {1, 1}, {-1, -1}});
    EXPECT_FALSE(copies.isOrthogonal());
    EXPECT_EQ(copies.columnDot(0, 1), 4);
}

TEST(DesignMatrix, EqualityOperator)
{
    const doe::DesignMatrix a =
        doe::DesignMatrix::fromSigns({{1, -1}, {-1, 1}});
    const doe::DesignMatrix b =
        doe::DesignMatrix::fromSigns({{1, -1}, {-1, 1}});
    const doe::DesignMatrix c =
        doe::DesignMatrix::fromSigns({{1, -1}, {-1, -1}});
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == c);
}

TEST(DesignMatrix, ToStringFormat)
{
    const doe::DesignMatrix m =
        doe::DesignMatrix::fromSigns({{1, -1}});
    EXPECT_EQ(m.toString(), "+1 -1\n");
}

TEST(DesignMatrix, LevelHelpers)
{
    EXPECT_EQ(doe::levelValue(doe::Level::High), 1);
    EXPECT_EQ(doe::levelValue(doe::Level::Low), -1);
    EXPECT_EQ(doe::flip(doe::Level::High), doe::Level::Low);
    EXPECT_EQ(doe::flip(doe::Level::Low), doe::Level::High);
}
