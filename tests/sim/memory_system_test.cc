#include <gtest/gtest.h>

#include "sim/memory_system.hh"

namespace sim = rigor::sim;

namespace
{

/** A small, deterministic hierarchy for timing checks. */
sim::ProcessorConfig
testConfig()
{
    sim::ProcessorConfig c;
    c.l1i = {1024, 1, 32, 1};
    c.l1d = {1024, 1, 32, 2};
    c.l2 = {4096, 1, 64, 10};
    c.memLatencyFirst = 100;
    c.memBandwidthBytes = 16;
    c.itlb = {16, 4096, 4, 30};
    c.dtlb = {16, 4096, 4, 30};
    c.validate();
    return c;
}

} // namespace

TEST(MemorySystem, TransferCyclesFormula)
{
    // 64B block / 16B bus = 4 chunks: first + 3 * following.
    const sim::MemorySystem m(testConfig());
    EXPECT_EQ(m.memoryTransferCycles(), 100u + 3u * 2u);
    // Channel occupancy covers only the data beats.
    EXPECT_EQ(m.memoryChannelOccupancy(), 1u + 3u * 2u);
}

TEST(MemorySystem, FirstBlockLatencyOverlapsAcrossMisses)
{
    // Two simultaneous misses: the second queues only behind the
    // first transfer's data beats, not its whole DRAM latency.
    sim::MemorySystem m(testConfig());
    const std::uint64_t lat1 = m.dataAccess(0, 0x0, false);
    const std::uint64_t lat2 = m.dataAccess(0, 0x100000, false);
    EXPECT_EQ(lat2 - lat1, m.memoryChannelOccupancy());
}

TEST(MemorySystem, FollowingLatencyIsTwoPercentOfFirst)
{
    sim::ProcessorConfig c = testConfig();
    EXPECT_EQ(c.memLatencyFollowing(), 2u); // 0.02 * 100
    c.memLatencyFirst = 50;
    EXPECT_EQ(c.memLatencyFollowing(), 1u);
    c.memLatencyFirst = 10;
    EXPECT_EQ(c.memLatencyFollowing(), 1u); // clamped to >= 1
}

TEST(MemorySystem, ColdDataAccessWalksWholeHierarchy)
{
    sim::MemorySystem m(testConfig());
    // TLB miss (30) + L1D (2) + L2 (10) + memory (106).
    EXPECT_EQ(m.dataAccess(0, 0x0, false), 30u + 2u + 10u + 106u);
}

TEST(MemorySystem, WarmAccessIsL1Latency)
{
    sim::MemorySystem m(testConfig());
    m.dataAccess(0, 0x0, false);
    EXPECT_EQ(m.dataAccess(200, 0x0, false), 2u);
}

TEST(MemorySystem, L2HitAvoidsMemory)
{
    sim::MemorySystem m(testConfig());
    m.dataAccess(0, 0x0, false);
    // 0x400 = 1024: different L1 set? L1 is 1KB direct-mapped so 0x400
    // wraps to set 0 and evicts 0x0; but 0x0 and 0x400 are different
    // 64B L2 blocks, so prime the L2 with 0x0, evict it from L1, and
    // re-access: TLB hit + L1 miss + L2 hit.
    m.dataAccess(400, 0x400, false);
    EXPECT_EQ(m.dataAccess(800, 0x0, false), 2u + 10u);
}

TEST(MemorySystem, InstructionPathUsesItlbAndL1i)
{
    sim::MemorySystem m(testConfig());
    // Cold: ITLB (30) + L1I (1) + L2 (10) + memory (106).
    EXPECT_EQ(m.instructionFetch(0, 0x0), 30u + 1u + 10u + 106u);
    EXPECT_EQ(m.instructionFetch(200, 0x0), 1u);
    EXPECT_EQ(m.stats().instructionFetches, 2u);
}

TEST(MemorySystem, BusContentionSerializesTransfers)
{
    sim::MemorySystem m(testConfig());
    // Two L2 misses issued at the same cycle: the second transfer
    // queues behind the first on the memory channel.
    const std::uint64_t lat1 = m.dataAccess(0, 0x0, false);
    const std::uint64_t lat2 = m.dataAccess(0, 0x10000, false);
    EXPECT_GT(lat2, lat1 - 30u); // second pays queueing on top
    EXPECT_GT(m.stats().busQueueCycles, 0u);
    EXPECT_EQ(m.stats().memoryTransfers, 2u);
}

TEST(MemorySystem, SharedL2SeesBothInstructionAndDataMisses)
{
    sim::MemorySystem m(testConfig());
    m.instructionFetch(0, 0x0);
    m.dataAccess(100, 0x40, false);
    EXPECT_EQ(m.stats().l2Accesses, 2u);
    EXPECT_EQ(m.l2().stats().accesses, 2u);
}

TEST(MemorySystem, WiderBusShortensTransfer)
{
    sim::ProcessorConfig wide = testConfig();
    wide.memBandwidthBytes = 64; // one chunk
    const sim::MemorySystem m(wide);
    EXPECT_EQ(m.memoryTransferCycles(), 100u);
}

TEST(MemorySystem, StoreTimingSameAsLoadPath)
{
    sim::MemorySystem m(testConfig());
    const std::uint64_t load_lat = m.dataAccess(0, 0x0, false);
    sim::MemorySystem m2(testConfig());
    const std::uint64_t store_lat = m2.dataAccess(0, 0x0, true);
    EXPECT_EQ(load_lat, store_lat);
}

TEST(MemorySystem, NextLinePrefetchDisabledByDefault)
{
    sim::MemorySystem m(testConfig());
    m.instructionFetch(0, 0x0);
    EXPECT_EQ(m.stats().instructionPrefetches, 0u);
}

TEST(MemorySystem, NextLinePrefetchWarmsTheFollowingBlock)
{
    sim::ProcessorConfig c = testConfig();
    c.l1iNextLinePrefetch = true;
    sim::MemorySystem m(c);
    // Fetch block 0: block 1 (0x20) is prefetched alongside.
    m.instructionFetch(0, 0x0);
    EXPECT_EQ(m.stats().instructionPrefetches, 1u);
    EXPECT_TRUE(m.l1i().contains(0x20));
    // The demand fetch of the prefetched block is now an L1 hit.
    EXPECT_EQ(m.instructionFetch(500, 0x20), 1u);
}

TEST(MemorySystem, NextLinePrefetchSkipsResidentBlocks)
{
    sim::ProcessorConfig c = testConfig();
    c.l1iNextLinePrefetch = true;
    sim::MemorySystem m(c);
    m.instructionFetch(0, 0x0);
    const std::uint64_t prefetches = m.stats().instructionPrefetches;
    // Re-fetching the same block must not re-prefetch a resident one.
    m.instructionFetch(600, 0x0);
    EXPECT_EQ(m.stats().instructionPrefetches, prefetches);
}

TEST(MemorySystem, PrefetchSpeedsUpSequentialCodeMarch)
{
    // A straight-line march through cold code: with next-line
    // prefetch, every block after the first is already in L1I.
    sim::ProcessorConfig base = testConfig();
    sim::ProcessorConfig pf = base;
    pf.l1iNextLinePrefetch = true;
    sim::MemorySystem m_base(base);
    sim::MemorySystem m_pf(pf);
    std::uint64_t base_lat = 0;
    std::uint64_t pf_lat = 0;
    for (std::uint64_t block = 0; block < 64; ++block) {
        base_lat += m_base.instructionFetch(block * 400, block * 32);
        pf_lat += m_pf.instructionFetch(block * 400, block * 32);
    }
    EXPECT_LT(pf_lat, base_lat / 4);
}

TEST(MemorySystem, PrefetchStillConsumesChannelBandwidth)
{
    sim::ProcessorConfig c = testConfig();
    c.l1iNextLinePrefetch = true;
    sim::MemorySystem m(c);
    m.instructionFetch(0, 0x0);
    // Block 0 (demand, L2 miss) + block 1 (prefetch, same 64B L2
    // block -> L2 hit, no extra transfer). Fetch far away: two more.
    m.instructionFetch(500, 0x1000);
    EXPECT_GE(m.stats().memoryTransfers, 2u);
}
