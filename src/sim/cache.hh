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

#include "sim/config.hh"
#include "sim/replacement.hh"

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
     *
     * @return true on hit
     */
    bool access(std::uint64_t addr);

    /** Check for presence without perturbing the LRU order. */
    bool contains(std::uint64_t addr) const;

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
    TagStore _tags{false};
    CacheStats _stats;
    std::uint32_t _blockShift = 0;
    std::uint32_t _setMask = 0;

    std::uint32_t setIndex(std::uint64_t addr) const;
    std::uint64_t tagOf(std::uint64_t addr) const;
};

} // namespace rigor::sim

#endif // RIGOR_SIM_CACHE_HH
