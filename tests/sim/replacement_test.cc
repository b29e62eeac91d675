#include <gtest/gtest.h>

#include "sim/replacement.hh"
#include "trace/rng.hh"

namespace sim = rigor::sim;
namespace trace = rigor::trace;

TEST(TagStore, MissThenHit)
{
    sim::TagStore t(4, 2);
    EXPECT_FALSE(t.lookup(0, 100));
    t.insert(0, 100);
    EXPECT_TRUE(t.lookup(0, 100));
}

TEST(TagStore, SetsAreIndependent)
{
    sim::TagStore t(2, 1);
    t.insert(0, 7);
    EXPECT_TRUE(t.probe(0, 7));
    EXPECT_FALSE(t.probe(1, 7));
}

TEST(TagStore, LruEvictsLeastRecentlyUsed)
{
    sim::TagStore t(1, 2);
    t.insert(0, 1);
    t.insert(0, 2);
    // Touch 1 so 2 becomes the LRU victim.
    EXPECT_TRUE(t.lookup(0, 1));
    EXPECT_TRUE(t.insert(0, 3)); // evicts 2
    EXPECT_TRUE(t.probe(0, 1));
    EXPECT_FALSE(t.probe(0, 2));
    EXPECT_TRUE(t.probe(0, 3));
}

TEST(TagStore, InvalidWaysFillBeforeEviction)
{
    sim::TagStore t(1, 3);
    EXPECT_FALSE(t.insert(0, 1));
    EXPECT_FALSE(t.insert(0, 2));
    EXPECT_FALSE(t.insert(0, 3));
    EXPECT_TRUE(t.insert(0, 4));
}

TEST(TagStore, ReinsertRefreshesPayloadWithoutEviction)
{
    sim::TagStore t(1, 2);
    t.insert(0, 1, 111);
    EXPECT_FALSE(t.insert(0, 1, 222));
    std::uint64_t payload = 0;
    EXPECT_TRUE(t.lookup(0, 1, &payload));
    EXPECT_EQ(payload, 222u);
}

TEST(TagStore, ProbeDoesNotPerturbLru)
{
    sim::TagStore t(1, 2);
    t.insert(0, 1);
    t.insert(0, 2);
    // Probe (unlike lookup) must not refresh tag 1.
    EXPECT_TRUE(t.probe(0, 1));
    t.insert(0, 3); // victim should still be 1
    EXPECT_FALSE(t.probe(0, 1));
}

TEST(TagStore, FlushInvalidatesAll)
{
    sim::TagStore t(2, 2);
    t.insert(0, 1);
    t.insert(1, 2);
    t.flush();
    EXPECT_FALSE(t.probe(0, 1));
    EXPECT_FALSE(t.probe(1, 2));
}

TEST(TagStore, Validation)
{
    EXPECT_THROW(sim::TagStore(0, 1),
                 std::invalid_argument);
    EXPECT_THROW(sim::TagStore(1, 0),
                 std::invalid_argument);
    sim::TagStore t(2, 1);
    EXPECT_THROW(t.lookup(2, 0), std::out_of_range);
}

TEST(TagStore, EmptyStoreRejectsEveryAccess)
{
    sim::TagStore t;
    EXPECT_EQ(t.numSets(), 0u);
    EXPECT_THROW(t.lookup(0, 0), std::out_of_range);
    EXPECT_THROW(t.insert(0, 0), std::out_of_range);
    EXPECT_THROW(t.reshape(0, 1),
                 std::invalid_argument);
}

TEST(TagStore, StoreWithoutPayloadsReadsBackZero)
{
    sim::TagStore t(1, 2, false);
    t.insert(0, 1, 111);
    std::uint64_t payload = 7;
    EXPECT_TRUE(t.lookup(0, 1, &payload));
    EXPECT_EQ(payload, 0u);
}

TEST(TagStoreReuse, ReshapedAndFlushedStoreMatchesAFreshOne)
{
    // One store reshaped through random geometries, and flushed at
    // random, must answer every operation exactly like a store built
    // fresh at each reshape and flushed at the same points: the same
    // hits, payloads and evictions, hence the same victims.
    trace::Rng rng(99);
    sim::TagStore reused;
    for (int phase = 0; phase < 40; ++phase) {
        const auto sets = std::uint32_t{1} << rng.nextBelow(7);
        const auto assoc =
            static_cast<std::uint32_t>(1 + rng.nextBelow(8));
        reused.reshape(sets, assoc);
        sim::TagStore fresh(sets, assoc);
        for (int op = 0; op < 500; ++op) {
            const auto set = static_cast<std::uint32_t>(
                rng.nextBelow(sets));
            const std::uint64_t tag = rng.nextBelow(3 * assoc);
            switch (rng.nextBelow(10)) {
              case 0:
                if (rng.nextBool(0.2)) {
                    reused.flush();
                    fresh.flush();
                }
                break;
              case 1:
              case 2:
                ASSERT_EQ(reused.probe(set, tag), fresh.probe(set, tag));
                break;
              case 3:
              case 4:
              case 5: {
                std::uint64_t a = 0, b = 0;
                const bool hit = reused.lookup(set, tag, &a);
                ASSERT_EQ(hit, fresh.lookup(set, tag, &b));
                if (hit) {
                    ASSERT_EQ(a, b);
                }
                break;
              }
              default: {
                const std::uint64_t payload = rng.next();
                ASSERT_EQ(reused.insert(set, tag, payload),
                          fresh.insert(set, tag, payload))
                    << "phase " << phase << " op " << op;
              }
            }
        }
    }
}
