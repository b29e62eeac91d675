/**
 * @file
 * Functional-unit pools with independent latency and throughput.
 *
 * Table 7 distinguishes operation latency (cycles until the result is
 * available) from throughput (the issue interval: cycles before the
 * unit accepts another operation). Pipelined units have interval 1;
 * the divide and FP multiply/divide/sqrt units are unpipelined, with
 * interval equal to latency.
 */

#ifndef RIGOR_SIM_FUNC_UNIT_HH
#define RIGOR_SIM_FUNC_UNIT_HH

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace rigor::sim
{

/** Utilization counters for one pool. */
struct FuPoolStats
{
    std::uint64_t operations = 0;
    std::uint64_t busyStallCycles = 0;
};

/**
 * A pool of identical functional units.
 *
 * The caller asks for the earliest cycle at or after a ready cycle at
 * which some unit can accept the operation, then books that unit for
 * the operation's issue interval.
 */
class FuPool
{
  public:
    /**
     * @param name report label, e.g. "int-alu"
     * @param units number of identical units (>= 1)
     * @param latency operation latency in cycles (>= 1)
     * @param interval issue interval in cycles (>= 1)
     */
    explicit FuPool(std::string name, std::uint32_t units = 1,
                    std::uint32_t latency = 1, std::uint32_t interval = 1);

    /**
     * Earliest cycle >= @p ready_cycle at which the unit that frees
     * first can accept an operation. The pool remembers that unit for
     * the next book().
     */
    std::uint64_t earliestStart(std::uint64_t ready_cycle);

    /**
     * Book the unit the last earliestStart() chose for @p interval
     * cycles, at the first cycle >= @p start_cycle it is free. Pools
     * shared by operations with different throughputs (the Table 7
     * int and FP mult/div units) book per-operation intervals.
     *
     * @return the cycle the operation actually starts
     */
    std::uint64_t book(std::uint64_t start_cycle, std::uint32_t interval);

    std::uint32_t latency() const { return _latency; }
    std::uint32_t interval() const { return _interval; }
    std::uint32_t units() const
    {
        return static_cast<std::uint32_t>(_freeAt.size());
    }
    const std::string &name() const { return _name; }
    const FuPoolStats &stats() const { return _stats; }

    void reset();

    /** Take on a new unit count, latency and interval, then reset(). */
    void reconfigure(std::uint32_t units, std::uint32_t latency,
                     std::uint32_t interval);

  private:
    std::string _name;
    std::uint32_t _latency = 1;
    std::uint32_t _interval = 1;
    std::vector<std::uint64_t> _freeAt;
    /** Unit the last earliestStart() chose. */
    std::size_t _chosen = 0;
    FuPoolStats _stats;
};

// Inline: the core calls both once per non-memory instruction.
inline std::uint64_t
FuPool::earliestStart(std::uint64_t ready_cycle)
{
    // The unit that frees earliest (the first, on a tie).
    _chosen = 0;
    for (std::size_t u = 1; u < _freeAt.size(); ++u)
        if (_freeAt[u] < _freeAt[_chosen])
            _chosen = u;
    return std::max(ready_cycle, _freeAt[_chosen]);
}

inline std::uint64_t
FuPool::book(std::uint64_t start_cycle, std::uint32_t interval)
{
    if (interval == 0)
        throw std::invalid_argument(
            "FuPool::book: interval must be non-zero");
    const std::uint64_t start = std::max(start_cycle, _freeAt[_chosen]);
    ++_stats.operations;
    _stats.busyStallCycles += start - start_cycle;
    _freeAt[_chosen] = start + interval;
    return start;
}

} // namespace rigor::sim

#endif // RIGOR_SIM_FUNC_UNIT_HH
