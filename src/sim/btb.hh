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
     * Look up @p pc.
     *
     * @param target_out receives the stored target on a hit
     * @return true on hit
     */
    bool lookup(std::uint64_t pc, std::uint64_t *target_out);

    /** Install or refresh the target of a taken branch. */
    void update(std::uint64_t pc, std::uint64_t target);

    /**
     * Take on a new geometry with every entry invalid and the
     * statistics cleared; see Cache::reconfigure.
     */
    void reconfigure(std::uint32_t entries, std::uint32_t assoc);

    const BtbStats &stats() const { return _stats; }

  private:
    /** 1 until configured, so an empty BTB's lookup reaches the
     *  tag store's bounds check instead of dividing by zero. */
    std::uint32_t _numSets = 1;
    TagStore _tags;
    BtbStats _stats;
};

} // namespace rigor::sim

#endif // RIGOR_SIM_BTB_HH
