#include <gtest/gtest.h>

#include "cluster/hierarchical.hh"

namespace cluster = rigor::cluster;

namespace
{

cluster::DistanceMatrix
fourPointLine()
{
    // Points on a line at 0, 1, 10, 12.
    const std::vector<std::vector<double>> pts = {
        {0.0}, {1.0}, {10.0}, {12.0}};
    return cluster::DistanceMatrix::fromPoints(pts);
}

} // namespace

TEST(Hierarchical, ProducesNMinusOneMerges)
{
    const cluster::Dendrogram d = cluster::agglomerate(fourPointLine());
    EXPECT_EQ(d.numLeaves(), 4u);
    EXPECT_EQ(d.steps().size(), 3u);
}

TEST(Hierarchical, SingleLinkageMergeOrder)
{
    const cluster::Dendrogram d = cluster::agglomerate(fourPointLine());
    // First merge: {0,1} at distance 1; then {2,3} at 2; then all at 9.
    EXPECT_DOUBLE_EQ(d.steps()[0].distance, 1.0);
    EXPECT_DOUBLE_EQ(d.steps()[1].distance, 2.0);
    EXPECT_DOUBLE_EQ(d.steps()[2].distance, 9.0);
    EXPECT_EQ(d.steps()[2].size, 4u);
}

TEST(Hierarchical, CutAtHeight)
{
    const cluster::Dendrogram d = cluster::agglomerate(fourPointLine());
    const cluster::Groups g = d.cut(5.0);
    ASSERT_EQ(g.size(), 2u);
    EXPECT_EQ(g[0], (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(g[1], (std::vector<std::size_t>{2, 3}));
}

TEST(Hierarchical, CutExtremes)
{
    const cluster::Dendrogram d = cluster::agglomerate(fourPointLine());
    EXPECT_EQ(d.cut(0.5).size(), 4u);
    EXPECT_EQ(d.cut(100.0).size(), 1u);
}

TEST(Hierarchical, ToStringShowsMerges)
{
    const cluster::Dendrogram d = cluster::agglomerate(fourPointLine());
    const std::string s = d.toString({"a", "b", "c", "d"});
    EXPECT_NE(s.find("{a, b}"), std::string::npos);
    EXPECT_NE(s.find("{c, d}"), std::string::npos);
}

TEST(Hierarchical, SingleLeafDendrogram)
{
    const cluster::DistanceMatrix m(1);
    const cluster::Dendrogram d = cluster::agglomerate(m);
    EXPECT_EQ(d.steps().size(), 0u);
    EXPECT_EQ(d.cut(1.0).size(), 1u);
}

TEST(Hierarchical, CutMatchesThresholdComponents)
{
    // Single linkage merges clusters at their closest pair, so a cut
    // at any height is the threshold grouping at that height.
    const cluster::DistanceMatrix m = cluster::DistanceMatrix::fromPoints(
        {{0.0, 0.0}, {3.0, 4.0}, {0.0, 9.0}, {20.0, 0.0}, {21.0, 1.0}});
    const cluster::Dendrogram d = cluster::agglomerate(m);
    for (double height : {0.5, 1.5, 5.0, 5.5, 10.0, 25.0})
        EXPECT_EQ(d.cut(height),
                  cluster::groupByThresholdComponents(m, height))
            << "height " << height;
}
