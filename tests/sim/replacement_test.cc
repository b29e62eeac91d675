#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/replacement.hh"
#include "trace/rng.hh"

namespace sim = rigor::sim;
namespace trace = rigor::trace;

TEST(TagStore, MissThenHit)
{
    sim::TagStore t(4, 2);
    EXPECT_FALSE(t.access(0, 100).hit);
    EXPECT_TRUE(t.access(0, 100).hit);
}

TEST(TagStore, SetsAreIndependent)
{
    sim::TagStore t(2, 1);
    t.access(0, 7);
    EXPECT_TRUE(t.probe(0, 7));
    EXPECT_FALSE(t.probe(1, 7));
}

TEST(TagStore, LruEvictsLeastRecentlyUsed)
{
    sim::TagStore t(1, 2);
    t.access(0, 1);
    t.access(0, 2);
    // Touch 1 so 2 becomes the LRU victim.
    EXPECT_TRUE(t.access(0, 1).hit);
    EXPECT_TRUE(t.access(0, 3).evicted); // evicts 2
    EXPECT_TRUE(t.probe(0, 1));
    EXPECT_FALSE(t.probe(0, 2));
    EXPECT_TRUE(t.probe(0, 3));
}

TEST(TagStore, InvalidWaysFillBeforeEviction)
{
    sim::TagStore t(1, 3);
    EXPECT_FALSE(t.access(0, 1).evicted);
    EXPECT_FALSE(t.access(0, 2).evicted);
    EXPECT_FALSE(t.access(0, 3).evicted);
    EXPECT_TRUE(t.access(0, 4).evicted);
}

TEST(TagStore, ReinsertRefreshesPayloadWithoutEviction)
{
    sim::TagStore t(1, 2);
    t.access(0, 1, 111);
    const sim::TagStore::Access again = t.access(0, 1, 222);
    EXPECT_TRUE(again.hit);
    EXPECT_FALSE(again.evicted);
    EXPECT_EQ(again.payload, 111u);
    EXPECT_EQ(t.access(0, 1, 333).payload, 222u);
}

TEST(TagStore, ProbeDoesNotPerturbLru)
{
    sim::TagStore t(1, 2);
    t.access(0, 1);
    t.access(0, 2);
    // Probe (unlike access) must not refresh tag 1.
    EXPECT_TRUE(t.probe(0, 1));
    t.access(0, 3); // victim should still be 1
    EXPECT_FALSE(t.probe(0, 1));
}

TEST(TagStore, FlushInvalidatesAll)
{
    sim::TagStore t(2, 2);
    t.access(0, 1);
    t.access(1, 2);
    t.flush();
    EXPECT_FALSE(t.probe(0, 1));
    EXPECT_FALSE(t.probe(1, 2));
    EXPECT_FALSE(t.access(0, 1).hit);
}

TEST(TagStore, Validation)
{
    EXPECT_THROW(sim::TagStore(0, 1),
                 std::invalid_argument);
    EXPECT_THROW(sim::TagStore(1, 0),
                 std::invalid_argument);
    sim::TagStore t(2, 1);
    EXPECT_THROW(t.access(2, 0), std::out_of_range);
    EXPECT_THROW((void)t.probe(2, 0), std::out_of_range);
}

TEST(TagStore, EmptyStoreRejectsEveryAccess)
{
    sim::TagStore t;
    EXPECT_EQ(t.numSets(), 0u);
    EXPECT_THROW(t.access(0, 0), std::out_of_range);
    EXPECT_THROW((void)t.probe(0, 0), std::out_of_range);
    EXPECT_THROW(t.reshape(0, 1),
                 std::invalid_argument);
}

TEST(TagStore, StoreWithoutPayloadsReadsBackZero)
{
    sim::TagStore t(1, 2, false);
    t.access(0, 1, 111);
    const sim::TagStore::Access hit = t.access(0, 1, 7);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.payload, 0u);
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
              default: {
                const std::uint64_t payload = rng.next();
                const sim::TagStore::Access a =
                    reused.access(set, tag, payload);
                const sim::TagStore::Access b =
                    fresh.access(set, tag, payload);
                ASSERT_EQ(a.hit, b.hit) << "phase " << phase << " op " << op;
                ASSERT_EQ(a.evicted, b.evicted);
                ASSERT_EQ(a.payload, b.payload);
              }
            }
        }
    }
}

namespace
{

/**
 * The plainest LRU there is: per set, a list of (tag, payload) ways
 * kept in recency order, most recent first. A miss on a full set
 * drops the last one.
 */
class ReferenceLru
{
  public:
    struct Way
    {
        std::uint64_t tag;
        std::uint64_t payload;
    };

    struct Result
    {
        bool hit = false;
        bool evicted = false;
        std::uint64_t evictedTag = 0;
        std::uint64_t payload = 0;
    };

    void
    reshape(std::uint32_t sets, std::uint32_t assoc)
    {
        _assoc = assoc;
        _sets.assign(sets, {});
    }

    void
    flush()
    {
        for (std::vector<Way> &set : _sets)
            set.clear();
    }

    Result
    access(std::uint32_t set, std::uint64_t tag, std::uint64_t payload)
    {
        std::vector<Way> &ways = _sets.at(set);
        Result result;
        const auto it =
            std::find_if(ways.begin(), ways.end(),
                         [tag](const Way &w) { return w.tag == tag; });
        if (it != ways.end()) {
            result.hit = true;
            result.payload = it->payload;
            ways.erase(it);
        } else if (ways.size() == _assoc) {
            result.evicted = true;
            result.evictedTag = ways.back().tag;
            ways.pop_back();
        }
        ways.insert(ways.begin(), Way{tag, payload});
        return result;
    }

  private:
    std::uint32_t _assoc = 0;
    std::vector<std::vector<Way>> _sets;
};

struct Shape
{
    const char *name;
    std::uint32_t sets;
    std::uint32_t assoc;
};

} // namespace

TEST(TagStoreDifferential, MatchesAReferenceLruAcrossShapes)
{
    // Direct-mapped, 8-way, and the 256- and 512-entry fully
    // associative shapes of Table 8's TLBs and BTB. The order reaches
    // every shape both by growing and by shrinking the way buffers.
    constexpr Shape kDirect{"direct-mapped", 64, 1};
    constexpr Shape kEightWay{"8-way", 16, 8};
    constexpr Shape kFull256{"256-way", 1, 256};
    constexpr Shape kFull512{"512-way", 1, 512};
    const Shape order[] = {kDirect,   kEightWay, kFull256, kFull512,
                           kFull256,  kEightWay, kDirect,  kFull512,
                           kEightWay, kFull256,  kDirect};

    trace::Rng rng(2003);
    sim::TagStore with_payload;
    sim::TagStore without_payload(false);
    ReferenceLru reference;
    std::uint64_t hits = 0, evictions = 0, flushes = 0;
    for (const Shape &shape : order) {
        SCOPED_TRACE(shape.name);
        with_payload.reshape(shape.sets, shape.assoc);
        without_payload.reshape(shape.sets, shape.assoc);
        reference.reshape(shape.sets, shape.assoc);
        // Tags from about one and a half times the associativity, so
        // sets fill, hit and evict.
        const std::uint64_t tag_range = shape.assoc + shape.assoc / 2 + 1;
        for (int op = 0; op < 6000; ++op) {
            if (rng.nextBelow(1500) == 0) {
                with_payload.flush();
                without_payload.flush();
                reference.flush();
                ++flushes;
            }
            const auto set =
                static_cast<std::uint32_t>(rng.nextBelow(shape.sets));
            const std::uint64_t tag = rng.nextBelow(tag_range);
            const std::uint64_t payload = rng.next();

            const ReferenceLru::Result want =
                reference.access(set, tag, payload);
            const sim::TagStore::Access got =
                with_payload.access(set, tag, payload);
            const sim::TagStore::Access bare =
                without_payload.access(set, tag, payload);
            ASSERT_EQ(got.hit, want.hit) << "op " << op;
            ASSERT_EQ(got.evicted, want.evicted) << "op " << op;
            ASSERT_EQ(got.payload, want.payload) << "op " << op;
            ASSERT_EQ(bare.hit, want.hit) << "op " << op;
            ASSERT_EQ(bare.evicted, want.evicted) << "op " << op;
            ASSERT_EQ(bare.payload, 0u);
            ASSERT_TRUE(with_payload.probe(set, tag));
            if (want.evicted) {
                ASSERT_FALSE(with_payload.probe(set, want.evictedTag))
                    << "op " << op;
                ASSERT_FALSE(without_payload.probe(set, want.evictedTag))
                    << "op " << op;
            }
            hits += want.hit;
            evictions += want.evicted;
        }
    }
    // The streams exercised every path.
    EXPECT_GT(hits, 10000u);
    EXPECT_GT(evictions, 10000u);
    EXPECT_GT(flushes, 10u);
}
