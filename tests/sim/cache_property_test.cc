/**
 * @file
 * Parameterized cache property sweeps: inclusion-style monotonicity
 * of miss counts in size and associativity across geometries, on both
 * a looping and a scanning reference stream.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/cache.hh"
#include "trace/rng.hh"

namespace sim = rigor::sim;
namespace trace = rigor::trace;

namespace
{

std::vector<std::uint64_t>
zipfStream(std::size_t n, std::uint64_t span_bytes)
{
    trace::Rng rng(2024);
    std::vector<std::uint64_t> addrs;
    addrs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        addrs.push_back(rng.nextZipf(span_bytes / 8) * 8);
    return addrs;
}

std::uint64_t
missesFor(const sim::CacheGeometry &geom,
          const std::vector<std::uint64_t> &addrs)
{
    sim::Cache cache("sweep", geom);
    for (std::uint64_t a : addrs)
        cache.access(a);
    return cache.stats().misses;
}

class SizeSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

class AssocSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

} // namespace

TEST_P(SizeSweep, LruMissesNeverIncreaseWithAssocCapacityScaling)
{
    // Fully-associative LRU caches have the inclusion property:
    // doubling capacity can only remove misses. (Set-associative
    // caches can violate this via indexing, which is why the check
    // pins full associativity.)
    const std::uint32_t size = GetParam();
    const auto addrs = zipfStream(40000, 512 * 1024);
    const std::uint64_t small = missesFor(
        {size, 0, 32, 1}, addrs);
    const std::uint64_t big = missesFor(
        {size * 2, 0, 32, 1}, addrs);
    EXPECT_LE(big, small);
}

INSTANTIATE_TEST_SUITE_P(Capacities, SizeSweep,
                         ::testing::Values(4 * 1024u, 8 * 1024u,
                                           16 * 1024u, 32 * 1024u,
                                           64 * 1024u));

TEST_P(AssocSweep, HigherAssociativityHelpsConflictHeavyStream)
{
    // A stream hitting a few conflicting frames repeatedly: more ways
    // at fixed capacity must not add misses.
    const std::uint32_t assoc = GetParam();
    std::vector<std::uint64_t> addrs;
    for (int round = 0; round < 2000; ++round)
        for (std::uint64_t frame = 0; frame < 6; ++frame)
            addrs.push_back(frame * 8192); // same set, distinct tags
    const std::uint64_t fewer_ways = missesFor(
        {8192, assoc, 32, 1}, addrs);
    const std::uint64_t more_ways = missesFor(
        {8192, assoc * 2, 32, 1}, addrs);
    EXPECT_LE(more_ways, fewer_ways);
}

INSTANTIATE_TEST_SUITE_P(Ways, AssocSweep,
                         ::testing::Values(1u, 2u, 4u));

TEST(CacheProperty, MissCountsBoundedByAccesses)
{
    const auto addrs = zipfStream(10000, 256 * 1024);
    for (std::uint32_t size : {4096u, 65536u}) {
        sim::Cache cache("bound",
                         {size, 2, 32, 1});
        for (std::uint64_t a : addrs)
            cache.access(a);
        EXPECT_LE(cache.stats().misses, cache.stats().accesses);
        EXPECT_LE(cache.stats().evictions, cache.stats().misses);
    }
}

TEST(CacheProperty, NoReuseScanMissesEveryAccess)
{
    // On a no-reuse scan every access is a compulsory miss.
    std::vector<std::uint64_t> scan;
    for (std::uint64_t i = 0; i < 4096; ++i)
        scan.push_back(i * 64);
    EXPECT_EQ(missesFor({8192, 2, 64, 1}, scan), 4096u);
}
