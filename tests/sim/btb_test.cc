#include <gtest/gtest.h>

#include "sim/btb.hh"

namespace sim = rigor::sim;

TEST(Btb, MissThenHitWithTarget)
{
    sim::Btb btb(16, 2);
    EXPECT_FALSE(btb.access(0x1000, 0x2000));
    EXPECT_TRUE(btb.access(0x1000, 0x2000));
    EXPECT_EQ(btb.stats().misses, 1u);
}

TEST(Btb, UpdateOverwritesTarget)
{
    sim::Btb btb(16, 2);
    btb.access(0x1000, 0x2000);
    // A stale target is a hit in the statistics, but not the target
    // fetch needed; the access installs the new one.
    EXPECT_FALSE(btb.access(0x1000, 0x3000));
    EXPECT_EQ(btb.stats().misses, 1u);
    EXPECT_TRUE(btb.access(0x1000, 0x3000));
}

TEST(Btb, ConflictEvictionInSmallBtb)
{
    // Direct-mapped 4-entry BTB: PCs 4 words apart collide.
    sim::Btb btb(4, 1);
    btb.access(0x0, 0xa);
    btb.access(4 * 4, 0xb); // same set as 0x0
    EXPECT_FALSE(btb.access(0x0, 0xa));
    EXPECT_EQ(btb.stats().misses, 3u);
}

TEST(Btb, AssociativityResolvesConflict)
{
    sim::Btb btb(4, 2);
    btb.access(0x0, 0xa);
    btb.access(2 * 4, 0xb); // 2 sets: word 2 -> set 0
    EXPECT_TRUE(btb.access(0x0, 0xa));
    EXPECT_TRUE(btb.access(2 * 4, 0xb));
}

TEST(Btb, FullyAssociativeHoldsEverything)
{
    sim::Btb btb(8, 0);
    for (std::uint64_t i = 0; i < 8; ++i)
        btb.access(i * 4, i);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(btb.access(i * 4, i));
}

TEST(Btb, MoreEntriesFewerMisses)
{
    sim::Btb small_btb(16, 2);
    sim::Btb big_btb(512, 2);
    // 64 branch sites round-robin.
    for (int pass = 0; pass < 3; ++pass)
        for (std::uint64_t i = 0; i < 64; ++i) {
            small_btb.access(i * 4, i);
            big_btb.access(i * 4, i);
        }
    EXPECT_EQ(big_btb.stats().misses, 64u); // cold only
    EXPECT_GT(small_btb.stats().misses, 100u);
}

TEST(Btb, StatsAndHitRate)
{
    sim::Btb btb(16, 2);
    btb.access(0x10, 0x20);
    btb.access(0x10, 0x20);
    EXPECT_EQ(btb.stats().lookups, 2u);
    EXPECT_EQ(btb.stats().misses, 1u);
    EXPECT_DOUBLE_EQ(btb.stats().hitRate(), 0.5);
}

TEST(Btb, Validation)
{
    EXPECT_THROW(sim::Btb(0, 1), std::invalid_argument);
    EXPECT_THROW(sim::Btb(12, 1), std::invalid_argument);
    EXPECT_THROW(sim::Btb(16, 3), std::invalid_argument);
}
