/**
 * @file
 * Branch target buffer.
 *
 * Supplies the target of a predicted-taken branch at fetch time. A
 * BTB miss on a taken branch means fetch cannot redirect until the
 * branch is decoded, costing a short misfetch bubble.
 */

#ifndef RIGOR_SIM_BTB_HH
#define RIGOR_SIM_BTB_HH

#include <cstdint>

#include "sim/replacement.hh"

namespace rigor::sim
{

/** BTB access counters. */
struct BtbStats
{
    std::uint64_t lookups = 0;
    std::uint64_t misses = 0;

    double hitRate() const
    {
        return lookups == 0
                   ? 1.0
                   : 1.0 - static_cast<double>(misses) /
                               static_cast<double>(lookups);
    }
};

class Btb
{
  public:
    /**
     * @param entries total entries (power of two)
     * @param assoc ways per set; 0 = fully associative
     */
    Btb(std::uint32_t entries, std::uint32_t assoc);

    /** An empty BTB (no sets); reconfigure() it before use. */
    Btb() = default;

    /**
     * Look up the taken branch at @p pc, then install or refresh its
     * @p target. A lookup that finds @p pc counts as a hit even when
     * its stored target is stale.
     *
     * @return true when the BTB supplied @p target at fetch
     */
    bool access(std::uint64_t pc, std::uint64_t target);

    /**
     * Take on a new geometry with every entry invalid and the
     * statistics cleared; see Cache::reconfigure.
     */
    void reconfigure(std::uint32_t entries, std::uint32_t assoc);

    const BtbStats &stats() const { return _stats; }

  private:
    /** Set count - 1 and log2(set count); the set count is a power of
     *  two. An empty BTB's access reaches the tag store's bounds
     *  check. */
    std::uint32_t _setMask = 0;
    std::uint32_t _setShift = 0;
    TagStore _tags;
    BtbStats _stats;
};

} // namespace rigor::sim

#endif // RIGOR_SIM_BTB_HH
