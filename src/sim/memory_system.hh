/**
 * @file
 * The full memory hierarchy: split L1 caches, unified L2, split TLBs,
 * and a bandwidth-limited main-memory channel.
 *
 * Timing model (matching the structure of Table 8):
 *  - L1 hit: L1 latency.
 *  - L1 miss, L2 hit: L1 latency + L2 latency.
 *  - L2 miss: + first-block memory latency + (chunks - 1) x
 *    following-block latency, where chunks = L2 block / bus width.
 *    Concurrent misses overlap their first-block (DRAM access)
 *    latency — banked memory — but the data beats serialize on the
 *    single channel: each transfer occupies it for
 *    1 + (chunks - 1) x following cycles. This preserved
 *    memory-level parallelism is what lets a larger reorder buffer
 *    overlap misses (the paper's top-ranked parameter).
 *  - TLB miss: adds the TLB miss penalty serially (hits are free,
 *    modeled as overlapped with the L1 access).
 */

#ifndef RIGOR_SIM_MEMORY_SYSTEM_HH
#define RIGOR_SIM_MEMORY_SYSTEM_HH

#include <cstdint>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/tlb.hh"

namespace rigor::sim
{

/** Aggregate counters for the hierarchy. */
struct MemorySystemStats
{
    std::uint64_t instructionFetches = 0;
    std::uint64_t dataAccesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t memoryTransfers = 0;
    std::uint64_t busQueueCycles = 0;
};

class MemorySystem
{
  public:
    explicit MemorySystem(const ProcessorConfig &config);

    /** An empty hierarchy (no sets); reconfigure() it before use. */
    MemorySystem() = default;

    /**
     * Fetch the instruction block containing @p pc.
     *
     * @param cycle cycle the access starts
     * @return total access latency in cycles
     */
    std::uint64_t instructionFetch(std::uint64_t cycle, std::uint64_t pc);

    /**
     * Perform a data access.
     *
     * @param cycle cycle the access starts
     * @param addr byte address
     * @param is_store true for stores (same timing path; stores are
     *        buffered by the core, but still occupy the hierarchy)
     * @return total access latency in cycles
     */
    std::uint64_t dataAccess(std::uint64_t cycle, std::uint64_t addr,
                             bool is_store);

    /**
     * Functionally warm the instruction side: advance TLB, L1I, and
     * L2 contents for a fetch of @p pc without any cycle accounting.
     * The access counters still tick; the bus/queue state does not.
     */
    void warmInstructionFetch(std::uint64_t pc);

    /** Functionally warm the data side (TLB, L1D, L2) for @p addr. */
    void warmDataAccess(std::uint64_t addr);

    /**
     * Take on @p config's geometries and timing, with every cache and
     * TLB flushed, the statistics cleared and the memory channel
     * free. Each cache and TLB keeps its buffer; see
     * Cache::reconfigure.
     */
    void reconfigure(const ProcessorConfig &config);

    const Cache &l1i() const { return _l1i; }
    const Cache &l1d() const { return _l1d; }
    const Cache &l2() const { return _l2; }
    const Tlb &itlb() const { return _itlb; }
    const Tlb &dtlb() const { return _dtlb; }
    const MemorySystemStats &stats() const { return _stats; }

    /** Total added latency of one memory transfer (no queueing). */
    std::uint64_t memoryTransferCycles() const;

    /** Cycles one transfer's data beats occupy the memory channel. */
    std::uint64_t memoryChannelOccupancy() const;

  private:
    Cache _l1i{"l1i"};
    Cache _l1d{"l1d"};
    Cache _l2{"l2"};
    Tlb _itlb{"itlb"};
    Tlb _dtlb{"dtlb"};
    std::uint32_t _memLatencyFirst = 0;
    std::uint32_t _memLatencyFollowing = 0;
    std::uint32_t _chunksPerBlock = 1;
    std::uint64_t _memFreeCycle = 0;
    MemorySystemStats _stats;

    /** L2 + memory path shared by both L1s. Returns added latency. */
    std::uint64_t accessL2(std::uint64_t cycle, std::uint64_t addr);
};

} // namespace rigor::sim

#endif // RIGOR_SIM_MEMORY_SYSTEM_HH
