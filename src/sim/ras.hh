/**
 * @file
 * Return address stack.
 *
 * A circular stack of predicted return addresses. Overflow silently
 * overwrites the oldest entry (so deep call chains mispredict on the
 * way back out — exactly why the RAS Entries parameter of Table 6
 * matters), and underflow returns no prediction.
 */

#ifndef RIGOR_SIM_RAS_HH
#define RIGOR_SIM_RAS_HH

#include <cstdint>
#include <optional>
#include <vector>

namespace rigor::sim
{

/** RAS outcome counters. */
struct RasStats
{
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t overflows = 0;
    std::uint64_t underflows = 0;
};

class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(std::uint32_t entries = 1);

    /** Push the return address of a call. */
    void push(std::uint64_t return_pc);

    /**
     * Pop the predicted return target, or std::nullopt on underflow.
     */
    std::optional<std::uint64_t> pop();

    /** Take on a new capacity, empty, with the statistics cleared. */
    void reconfigure(std::uint32_t entries);

    std::uint32_t capacity() const
    {
        return static_cast<std::uint32_t>(_entries.size());
    }
    std::uint32_t depth() const { return _depth; }
    const RasStats &stats() const { return _stats; }

  private:
    std::vector<std::uint64_t> _entries;
    std::uint32_t _top = 0;   ///< index of the next free slot
    std::uint32_t _depth = 0; ///< live entries (<= capacity)
    RasStats _stats;
};

} // namespace rigor::sim

#endif // RIGOR_SIM_RAS_HH
