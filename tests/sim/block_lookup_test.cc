/**
 * The repeat rule of BlockLookup: an access to the block (or page)
 * accessed last is a hit that does no tag-store work. A Cache or Tlb
 * that applies it must find and do exactly what a plain LRU tag store
 * does on every access, on direct-mapped, 8-way and fully associative
 * geometries; and a recorded track, replayed, must give back the same
 * outcomes.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/block_lookup.hh"
#include "sim/cache.hh"
#include "sim/replacement.hh"
#include "sim/tlb.hh"
#include "trace/rng.hh"

namespace sim = rigor::sim;
namespace trace = rigor::trace;

namespace
{

/**
 * Seeded addresses that repeat the previous block half of the time and
 * otherwise jump within a working set a few times the structure's
 * capacity, so hits, misses, evictions and repeats all occur.
 */
std::vector<std::uint64_t>
addressStream(std::uint64_t seed, std::uint64_t block_bytes,
              std::uint64_t blocks)
{
    trace::Rng rng(seed);
    std::vector<std::uint64_t> addrs;
    std::uint64_t addr = 0;
    for (int i = 0; i < 20000; ++i) {
        if (!rng.nextBool(0.5))
            addr = rng.nextBelow(3 * blocks) * block_bytes;
        addrs.push_back(addr + rng.nextBelow(block_bytes));
    }
    return addrs;
}

/** The outcome a plain tag store (no repeat rule) gives each access. */
std::vector<sim::Outcome>
plainOutcomes(std::uint32_t sets, std::uint32_t ways,
              std::uint64_t block_bytes,
              const std::vector<std::uint64_t> &addrs)
{
    sim::TagStore tags(sets, ways, false);
    const int shift = std::countr_zero(block_bytes);
    const int set_bits = std::countr_zero(sets);
    std::vector<sim::Outcome> out;
    for (const std::uint64_t addr : addrs) {
        const std::uint64_t block = addr >> shift;
        const sim::TagStore::Access a = tags.access(
            static_cast<std::uint32_t>(block & (sets - 1)),
            block >> set_bits);
        out.push_back({a.hit, a.evicted});
    }
    return out;
}

/** Per-access outcomes of @p cache, read off its counters. */
std::vector<sim::Outcome>
cacheOutcomes(sim::Cache &cache, const std::vector<std::uint64_t> &addrs)
{
    std::vector<sim::Outcome> out;
    for (const std::uint64_t addr : addrs) {
        const std::uint64_t evictions = cache.stats().evictions;
        const bool hit = cache.access(addr);
        out.push_back({hit, cache.stats().evictions != evictions});
    }
    return out;
}

/** 1-way, 8-way and fully associative, 64 blocks of 32 B each. */
const sim::CacheGeometry kCacheGeometries[] = {
    {2048, 1, 32, 1},
    {2048, 8, 32, 1},
    {2048, 0, 32, 1},
};

} // namespace

TEST(BlockLookup, CacheRepeatRuleMatchesAPlainTagStore)
{
    for (const sim::CacheGeometry &g : kCacheGeometries) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const auto addrs =
                addressStream(seed, g.blockBytes, g.numBlocks());
            sim::Cache cache("c", g);
            const auto expected = plainOutcomes(
                g.numSets(), g.effectiveAssoc(), g.blockBytes, addrs);
            const auto actual = cacheOutcomes(cache, addrs);
            ASSERT_EQ(actual.size(), expected.size());
            std::size_t repeats = 0, evictions = 0;
            for (std::size_t i = 0; i < actual.size(); ++i) {
                ASSERT_TRUE(actual[i] == expected[i])
                    << "assoc " << g.assoc << ", seed " << seed
                    << ", access " << i;
                repeats += i > 0 && addrs[i] / g.blockBytes ==
                                        addrs[i - 1] / g.blockBytes;
                evictions += actual[i].evicted;
            }
            EXPECT_GT(repeats, addrs.size() / 3);
            EXPECT_GT(evictions, 0u);
        }
    }
}

TEST(BlockLookup, TlbRepeatRuleMatchesAPlainTagStore)
{
    for (const std::uint32_t assoc : {1u, 8u, 0u}) {
        const sim::TlbGeometry g{64, 4096, assoc, 30};
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const auto addrs = addressStream(seed, g.pageBytes, g.entries);
            sim::Tlb tlb("t", g);
            const auto expected = plainOutcomes(
                g.numSets(), g.effectiveAssoc(), g.pageBytes, addrs);
            for (std::size_t i = 0; i < addrs.size(); ++i)
                ASSERT_EQ(tlb.access(addrs[i]) == 0, expected[i].hit)
                    << "assoc " << assoc << ", seed " << seed
                    << ", access " << i;
        }
    }
}

TEST(BlockLookup, ReplayedTrackGivesTheLiveOutcomes)
{
    for (const sim::CacheGeometry &g : kCacheGeometries) {
        const auto addrs = addressStream(7, g.blockBytes, g.numBlocks());
        sim::Cache live("live", g);
        const auto expected = cacheOutcomes(live, addrs);

        const sim::OutcomeTrack track = sim::Cache::record(g, addrs);
        EXPECT_LT(track.size(), addrs.size());
        sim::Cache replayed("replayed", g);
        replayed.replay(track);
        EXPECT_TRUE(cacheOutcomes(replayed, addrs) == expected);
        EXPECT_EQ(replayed.stats().accesses, live.stats().accesses);
        EXPECT_EQ(replayed.stats().misses, live.stats().misses);
        EXPECT_EQ(replayed.stats().evictions, live.stats().evictions);

        // The track is spent; reset() detaches it and runs live again.
        EXPECT_THROW(replayed.access(addrs.front() + (1u << 20)),
                     std::logic_error);
        replayed.reset();
        EXPECT_TRUE(cacheOutcomes(replayed, addrs) == expected);
    }
}

TEST(BlockLookup, TrackPacksTwoBitsPerOutcome)
{
    sim::OutcomeTrack track;
    for (int i = 0; i < 100; ++i)
        track.push({i % 3 == 0, i % 5 == 0});
    ASSERT_EQ(track.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(track.at(i).hit, i % 3 == 0) << i;
        EXPECT_EQ(track.at(i).evicted, i % 5 == 0) << i;
    }
    EXPECT_THROW(track.at(100), std::logic_error);
}
