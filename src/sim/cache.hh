/**
 * @file
 * Timing-model cache: tag-only simulation of one cache level.
 *
 * Data values are never stored — the trace-driven core only needs hit
 * or miss decisions and latencies, which depend on tags alone.
 */

#ifndef RIGOR_SIM_CACHE_HH
#define RIGOR_SIM_CACHE_HH

#include <cstdint>
#include <string>

#include "sim/block_lookup.hh"
#include "sim/config.hh"

namespace rigor::sim
{

/** Hit/miss counters for one cache. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    double missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

/** One level of cache with configurable geometry (LRU replacement). */
class Cache
{
  public:
    /**
     * @param name report label, e.g. "l1d"
     * @param geometry size/assoc/block/latency
     */
    Cache(std::string name, const CacheGeometry &geometry);

    /** An empty cache (no sets); reconfigure() it before use. */
    explicit Cache(std::string name);

    /**
     * Access the block containing @p addr, allocating it on a miss.
     * An access to the block accessed last is a hit that does no tag
     * work (see BlockLookup).
     *
     * @return true on hit
     */
    bool access(std::uint64_t addr);

    /** Check for presence without perturbing the LRU order (live
     *  state only; see BlockLookup::probe). */
    bool contains(std::uint64_t addr) const { return _lookup.probe(addr); }

    /**
     * Take every later non-repeat access's outcome from @p track (see
     * BlockLookup::replay) until the next reset() or reconfigure().
     */
    void replay(const OutcomeTrack &track) { _lookup.replay(track); }

    /**
     * The track a fresh cache of @p geometry records over @p addrs,
     * the addresses of its accesses in order.
     */
    template <class Addresses>
    static OutcomeTrack
    record(const CacheGeometry &geometry, Addresses &&addrs)
    {
        return Cache("record", geometry)._lookup.record(addrs);
    }

    const std::string &name() const { return _name; }
    const CacheGeometry &geometry() const { return _geometry; }
    const CacheStats &stats() const { return _stats; }

    /** Hit latency in cycles. */
    std::uint32_t latency() const { return _geometry.latency; }

    /** Invalidate all blocks and zero the statistics. */
    void reset();

    /**
     * Take on @p geometry and reset(). O(1) unless the geometry has
     * more blocks than any this cache has held before.
     */
    void reconfigure(const CacheGeometry &geometry);

  private:
    std::string _name;
    CacheGeometry _geometry;
    BlockLookup _lookup;
    CacheStats _stats;
};

// Inline: the core makes one or two accesses per instruction.
inline bool
Cache::access(std::uint64_t addr)
{
    ++_stats.accesses;
    const Outcome outcome = _lookup.access(addr);
    if (outcome.hit)
        return true;
    ++_stats.misses;
    _stats.evictions += outcome.evicted;
    return false;
}

} // namespace rigor::sim

#endif // RIGOR_SIM_CACHE_HH
