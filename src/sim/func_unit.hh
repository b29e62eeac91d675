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

#include <cstdint>
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
 * which some unit can accept the operation; the pool books the unit
 * for its issue interval.
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
     * Reserve a unit at the earliest cycle >= @p ready_cycle.
     *
     * @return the cycle the operation actually starts
     */
    std::uint64_t reserve(std::uint64_t ready_cycle);

    /**
     * Reserve a unit with an explicit issue interval — pools shared
     * by operations with different throughputs (the Table 7 int and
     * FP mult/div units) book per-operation intervals.
     *
     * @return the cycle the operation actually starts
     */
    std::uint64_t reserveFor(std::uint64_t ready_cycle,
                             std::uint32_t interval);

    /** Earliest start cycle a reserve() at @p ready_cycle would get. */
    std::uint64_t earliestStart(std::uint64_t ready_cycle) const;

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
    FuPoolStats _stats;
};

} // namespace rigor::sim

#endif // RIGOR_SIM_FUNC_UNIT_HH
