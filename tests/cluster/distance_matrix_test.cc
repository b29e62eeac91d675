#include <gtest/gtest.h>

#include "cluster/distance_matrix.hh"

namespace cluster = rigor::cluster;

TEST(DistanceMatrix, DiagonalIsZero)
{
    cluster::DistanceMatrix m(4);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(m.at(i, i), 0.0);
}

TEST(DistanceMatrix, SymmetricStorage)
{
    cluster::DistanceMatrix m(3);
    m.set(0, 2, 7.5);
    EXPECT_DOUBLE_EQ(m.at(0, 2), 7.5);
    EXPECT_DOUBLE_EQ(m.at(2, 0), 7.5);
    m.set(2, 1, 3.0);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 3.0);
}

TEST(DistanceMatrix, RejectsNegativeAndBadIndices)
{
    cluster::DistanceMatrix m(3);
    EXPECT_THROW(m.set(0, 1, -1.0), std::invalid_argument);
    EXPECT_THROW(m.set(0, 0, 1.0), std::out_of_range);
    EXPECT_THROW(m.at(0, 3), std::out_of_range);
    EXPECT_THROW(cluster::DistanceMatrix(0), std::invalid_argument);
}

TEST(DistanceMatrix, FromPointsEuclideanDefault)
{
    const std::vector<std::vector<double>> pts = {
        {0.0, 0.0}, {3.0, 4.0}, {0.0, 8.0}};
    const cluster::DistanceMatrix m =
        cluster::DistanceMatrix::fromPoints(pts);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
    EXPECT_DOUBLE_EQ(m.at(0, 2), 8.0);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
}

TEST(DistanceMatrix, PairsBelowThreshold)
{
    cluster::DistanceMatrix m(3);
    m.set(0, 1, 1.0);
    m.set(0, 2, 10.0);
    m.set(1, 2, 4.9);
    const auto pairs = m.pairsBelow(5.0);
    ASSERT_EQ(pairs.size(), 2u);
    EXPECT_EQ(pairs[0], std::make_pair(std::size_t{0}, std::size_t{1}));
    EXPECT_EQ(pairs[1], std::make_pair(std::size_t{1}, std::size_t{2}));
}

TEST(DistanceMatrix, PairsBelowIsStrict)
{
    cluster::DistanceMatrix m(2);
    m.set(0, 1, 5.0);
    EXPECT_TRUE(m.pairsBelow(5.0).empty());
    EXPECT_EQ(m.pairsBelow(5.0001).size(), 1u);
}

TEST(DistanceMatrix, ToStringHasLabelsAndValues)
{
    cluster::DistanceMatrix m(2);
    m.set(0, 1, 89.8);
    const std::string s = m.toString({"gzip", "vpr"});
    EXPECT_NE(s.find("gzip"), std::string::npos);
    EXPECT_NE(s.find("89.8"), std::string::npos);
    EXPECT_NE(s.find("0.0"), std::string::npos);
}

TEST(DistanceMatrix, ToStringValidatesLabelCount)
{
    cluster::DistanceMatrix m(2);
    EXPECT_THROW(m.toString({"only-one"}), std::invalid_argument);
}
