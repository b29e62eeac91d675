/**
 * @file
 * Translation lookaside buffer timing model.
 *
 * Hits are assumed overlapped with the cache access (zero added
 * latency); a miss pays the configured miss penalty, standing in for
 * the hardware page-table walk of the machines in Table 8.
 */

#ifndef RIGOR_SIM_TLB_HH
#define RIGOR_SIM_TLB_HH

#include <cstdint>
#include <string>

#include "sim/block_lookup.hh"
#include "sim/config.hh"

namespace rigor::sim
{

/** Access counters for one TLB. */
struct TlbStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

/** A set-associative (or fully associative) TLB. */
class Tlb
{
  public:
    Tlb(std::string name, const TlbGeometry &geometry);

    /** An empty TLB (no sets); reconfigure() it before use. */
    explicit Tlb(std::string name);

    /**
     * Translate the page containing @p addr, filling the entry on a
     * miss. An access to the page accessed last is a hit that does no
     * tag work (see BlockLookup).
     *
     * @return added latency in cycles: 0 on hit, the miss penalty on
     *         a miss
     */
    std::uint32_t access(std::uint64_t addr);

    const std::string &name() const { return _name; }
    const TlbGeometry &geometry() const { return _geometry; }
    const TlbStats &stats() const { return _stats; }

    /** Invalidate all entries and zero the statistics. */
    void reset();

    /** Take on @p geometry and reset(); see Cache::reconfigure. */
    void reconfigure(const TlbGeometry &geometry);

    /** Replay @p track until the next reset(); see Cache::replay. */
    void replay(const OutcomeTrack &track) { _lookup.replay(track); }

    /** The track a fresh TLB of @p geometry records over @p addrs. */
    template <class Addresses>
    static OutcomeTrack
    record(const TlbGeometry &geometry, Addresses &&addrs)
    {
        return Tlb("record", geometry)._lookup.record(addrs);
    }

  private:
    std::string _name;
    TlbGeometry _geometry;
    BlockLookup _lookup;
    TlbStats _stats;
};

// Inline: the core makes one or two translations per instruction.
inline std::uint32_t
Tlb::access(std::uint64_t addr)
{
    ++_stats.accesses;
    if (_lookup.access(addr).hit)
        return 0;
    ++_stats.misses;
    return _geometry.missLatency;
}

} // namespace rigor::sim

#endif // RIGOR_SIM_TLB_HH
