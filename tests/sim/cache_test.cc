#include <gtest/gtest.h>

#include "sim/cache.hh"

namespace sim = rigor::sim;

namespace
{

sim::CacheGeometry
geom(std::uint32_t size, std::uint32_t assoc, std::uint32_t block,
     std::uint32_t latency = 1)
{
    return sim::CacheGeometry{size, assoc, block, latency};
}

} // namespace

TEST(Cache, GeometryDerivedQuantities)
{
    const sim::CacheGeometry g = geom(4096, 2, 32);
    EXPECT_EQ(g.numBlocks(), 128u);
    EXPECT_EQ(g.effectiveAssoc(), 2u);
    EXPECT_EQ(g.numSets(), 64u);
}

TEST(Cache, FullyAssociativeGeometry)
{
    const sim::CacheGeometry g = geom(1024, 0, 32);
    EXPECT_EQ(g.effectiveAssoc(), 32u);
    EXPECT_EQ(g.numSets(), 1u);
}

TEST(Cache, ColdMissThenHit)
{
    sim::Cache c("test", geom(1024, 2, 32));
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SameBlockDifferentBytesHit)
{
    sim::Cache c("test", geom(1024, 2, 32));
    c.access(0x100);
    EXPECT_TRUE(c.access(0x11f)); // same 32B block
    EXPECT_FALSE(c.access(0x120)); // next block
}

TEST(Cache, CapacityEviction)
{
    // Direct-mapped 4-block cache: 5 distinct blocks mapping around.
    sim::Cache c("dm", geom(128, 1, 32));
    // Blocks 0 and 4 collide in set 0.
    EXPECT_FALSE(c.access(0 * 32));
    EXPECT_FALSE(c.access(4 * 32));
    EXPECT_FALSE(c.access(0 * 32)); // evicted by block 4
    EXPECT_EQ(c.stats().evictions, 2u);
}

TEST(Cache, AssociativityAvoidsConflict)
{
    // Same two blocks in a 2-way cache of the same size: no conflict.
    sim::Cache c("2way", geom(128, 2, 32));
    EXPECT_FALSE(c.access(0 * 32));
    EXPECT_FALSE(c.access(2 * 32)); // 2 sets: block 2 maps to set 0
    EXPECT_TRUE(c.access(0 * 32));
    EXPECT_TRUE(c.access(2 * 32));
}

TEST(Cache, LargerBlocksExploitSpatialLocality)
{
    sim::Cache small_blocks("s", geom(4096, 1, 16));
    sim::Cache large_blocks("l", geom(4096, 1, 64));
    // Sequential sweep: 64B blocks miss 4x less often.
    for (std::uint64_t a = 0; a < 2048; a += 8) {
        small_blocks.access(a);
        large_blocks.access(a);
    }
    EXPECT_EQ(small_blocks.stats().misses, 128u);
    EXPECT_EQ(large_blocks.stats().misses, 32u);
}

TEST(Cache, WorkingSetFitsBiggerCache)
{
    sim::Cache small("small", geom(1024, 2, 32));
    sim::Cache big("big", geom(16384, 2, 32));
    // 8KB working set cycled twice.
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < 8192; a += 32) {
            small.access(a);
            big.access(a);
        }
    // The big cache holds the set after the first pass.
    EXPECT_EQ(big.stats().misses, 256u);
    EXPECT_GT(small.stats().misses, 400u);
}

TEST(Cache, FullyAssociativeLruIsPerfectForSmallSet)
{
    sim::Cache c("fa", geom(1024, 0, 32));
    for (int pass = 0; pass < 3; ++pass)
        for (std::uint64_t a = 0; a < 1024; a += 32)
            c.access(a);
    EXPECT_EQ(c.stats().misses, 32u); // cold misses only
}

TEST(Cache, ContainsDoesNotAllocateOrCount)
{
    sim::Cache c("probe", geom(1024, 2, 32));
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_EQ(c.stats().accesses, 0u);
    c.access(0x40);
    EXPECT_TRUE(c.contains(0x40));
}

TEST(Cache, ResetClearsStateAndStats)
{
    sim::Cache c("r", geom(1024, 2, 32));
    c.access(0x40);
    c.reset();
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, MissRateComputation)
{
    sim::Cache c("mr", geom(1024, 2, 32));
    c.access(0);
    c.access(0);
    c.access(0);
    c.access(32);
    EXPECT_DOUBLE_EQ(c.stats().missRate(), 0.5);
}

TEST(Cache, LatencyAccessor)
{
    sim::Cache c("lat", geom(1024, 2, 32, 4));
    EXPECT_EQ(c.latency(), 4u);
}
