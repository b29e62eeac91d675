#include <gtest/gtest.h>

#include "cluster/threshold_grouping.hh"

namespace cluster = rigor::cluster;

namespace
{

/** Distances with a clear two-cluster structure plus an outlier. */
cluster::DistanceMatrix
exampleMatrix()
{
    cluster::DistanceMatrix m(5);
    // Cluster {0, 1}, cluster {2, 3}, outlier {4}.
    m.set(0, 1, 1.0);
    m.set(2, 3, 2.0);
    m.set(0, 2, 50.0);
    m.set(0, 3, 55.0);
    m.set(0, 4, 90.0);
    m.set(1, 2, 52.0);
    m.set(1, 3, 51.0);
    m.set(1, 4, 95.0);
    m.set(2, 4, 80.0);
    m.set(3, 4, 85.0);
    return m;
}

} // namespace

TEST(ThresholdGrouping, ComponentsAtTightThreshold)
{
    const cluster::Groups g =
        cluster::groupByThresholdComponents(exampleMatrix(), 10.0);
    ASSERT_EQ(g.size(), 3u);
    EXPECT_EQ(g[0], (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(g[1], (std::vector<std::size_t>{2, 3}));
    EXPECT_EQ(g[2], (std::vector<std::size_t>{4}));
}

TEST(ThresholdGrouping, EverythingMergesAtHugeThreshold)
{
    const cluster::Groups g =
        cluster::groupByThresholdComponents(exampleMatrix(), 1000.0);
    ASSERT_EQ(g.size(), 1u);
    EXPECT_EQ(g[0].size(), 5u);
}

TEST(ThresholdGrouping, AllSingletonsAtZeroThreshold)
{
    const cluster::Groups g =
        cluster::groupByThresholdComponents(exampleMatrix(), 0.0);
    EXPECT_EQ(g.size(), 5u);
}

TEST(ThresholdGrouping, ComponentsAreTransitive)
{
    // 0-1 close, 1-2 close, 0-2 far: components still merge all three
    // (chaining), which is what reproduces the paper's Table 11.
    cluster::DistanceMatrix m(3);
    m.set(0, 1, 1.0);
    m.set(1, 2, 1.0);
    m.set(0, 2, 100.0);
    const cluster::Groups g =
        cluster::groupByThresholdComponents(m, 5.0);
    ASSERT_EQ(g.size(), 1u);
}

TEST(ThresholdGrouping, EveryItemAppearsExactlyOnce)
{
    for (double threshold : {0.0, 3.0, 60.0, 200.0}) {
        const cluster::Groups g = cluster::groupByThresholdComponents(
            exampleMatrix(), threshold);
        std::vector<bool> seen(5, false);
        for (const auto &group : g)
            for (std::size_t idx : group) {
                EXPECT_FALSE(seen[idx]);
                seen[idx] = true;
            }
        for (bool s : seen)
            EXPECT_TRUE(s);
    }
}
