/**
 * @file
 * Trace-driven superscalar timing core.
 *
 * A one-pass scoreboard model in the SimpleScalar sim-outorder mold:
 * each dynamic instruction's fetch, dispatch, issue, completion, and
 * commit cycles are derived in program order from
 *
 *  - fetch bandwidth, taken-branch fetch-group breaks, I-cache/I-TLB
 *    latency, branch mispredict redirects, BTB misfetch bubbles and
 *    RAS mispredictions, and IFQ occupancy;
 *  - dispatch width and ROB/LSQ occupancy (an instruction cannot
 *    dispatch until the instruction robEntries earlier has
 *    committed);
 *  - register dependences (scoreboard of per-register ready cycles),
 *    issue width, functional-unit latency/throughput contention, and
 *    memory-port contention;
 *  - D-cache/D-TLB/L2/memory timing with a bandwidth-limited channel;
 *  - in-order commit at the machine width.
 *
 * The model trades cycle-by-cycle event fidelity for a single linear
 * pass. On one core of a 4-vCPU x86 VM (BENCH_34.json), a live core
 * ran about 65 ns per instruction as perfbench's
 * timing_core_ns_per_instr measures it, and a screen cell that
 * replays its L1 cache and TLB tracks about 64 ns, engine included
 * (2 threads x campaign_s over 1144 cells of 20k instructions; 74 ns
 * before the replay). Both read 1.5-1.9x slower on a busier host.
 * That is what makes the 88-configuration x 13-benchmark
 * Plackett-Burman experiment of Table 9 tractable. Every parameter of Tables 6-8 has
 * a first-class mechanism here.
 */

#ifndef RIGOR_SIM_CORE_HH
#define RIGOR_SIM_CORE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/branch_predictor.hh"
#include "sim/btb.hh"
#include "sim/config.hh"
#include "sim/func_unit.hh"
#include "sim/memory_system.hh"
#include "sim/ras.hh"
#include "trace/generator.hh"
#include "trace/instruction.hh"

namespace rigor::sim
{

/**
 * Hook invoked for every non-memory instruction before execution.
 * Used by the instruction-precomputation / value-reuse enhancements:
 * returning true means the enhancement supplies the result, so the
 * instruction bypasses its functional unit and completes with zero
 * execution latency. Loads and stores are never offered: every one of
 * them reaches the memory hierarchy, so no hook changes the data-side
 * access stream (see StreamTracks).
 */
class ExecutionHook
{
  public:
    virtual ~ExecutionHook() = default;

    /** @return true when the enhancement satisfies this instruction */
    virtual bool intercept(const trace::Instruction &inst) = 0;
};

/** End-of-run summary statistics. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t btbMisfetches = 0;
    std::uint64_t rasMispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t interceptedInstructions = 0;
    /** Instructions consumed by the warm-up phase (excluded from
     *  measuredCycles()). */
    std::uint64_t warmupInstructions = 0;
    /** Commit cycle of the last warm-up instruction. */
    std::uint64_t warmupCycles = 0;

    double ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                                 static_cast<double>(cycles);
    }

    /**
     * Cycles spent after the warm-up phase — the steady-state
     * response variable. The paper's runs covered billions of
     * instructions, so cold-start transients were negligible; at this
     * repo's scaled-down run lengths they must be excluded
     * explicitly.
     */
    std::uint64_t measuredCycles() const
    {
        return cycles - warmupCycles;
    }

    /** Instructions counted after the warm-up phase. */
    std::uint64_t measuredInstructions() const
    {
        return instructions - warmupInstructions;
    }
};

/**
 * Per-cycle bounded-capacity slot allocator (issue slots, memory
 * ports). A tagged ring buffer keeps O(1) allocation without a
 * global cycle loop; the ring must be larger than the maximum spread
 * between in-flight cycle numbers, which the ROB bounds.
 *
 * A slot packs its key (cycle + _base) above an 8-bit booking count.
 * reset() moves _base past the largest key ever stored, so no slot
 * written before the reset can match a key booked after it, and the
 * 1 MiB ring is never cleared between runs. Key 0 (a zeroed slot)
 * never matches, since _base starts at 1.
 */
class SlotAllocator
{
  public:
    /** @param capacity_per_cycle bookings per cycle, in [1, 255] */
    explicit SlotAllocator(std::uint32_t capacity_per_cycle = 1);

    /**
     * Book one slot at the first cycle >= @p earliest with capacity.
     * @return the cycle booked
     * @throws std::out_of_range when @p earliest is 2^54 or later
     */
    std::uint64_t allocate(std::uint64_t earliest);

    /** Release every booking, as if freshly constructed. O(1). */
    void reset();

    /** Take on a new per-cycle capacity, then reset(). */
    void reconfigure(std::uint32_t capacity_per_cycle);

  private:
    static constexpr std::size_t ringSize = 1u << 17;
    static constexpr unsigned countBits = 8;
    static constexpr std::uint64_t countMask = (1u << countBits) - 1;
    /** Cycles and bases stay below these, so keys fit in 56 bits. */
    static constexpr std::uint64_t maxCycle = std::uint64_t{1} << 54;
    static constexpr std::uint64_t maxBase = std::uint64_t{1} << 55;

    std::uint32_t _capacity = 1;
    std::uint64_t _base = 1;
    /** Largest key stored since the ring was last zeroed. */
    std::uint64_t _maxKey = 0;
    std::vector<std::uint64_t> _slots;
};

// Inline: the core books one or two slots per instruction.
inline std::uint64_t
SlotAllocator::allocate(std::uint64_t earliest)
{
    if (earliest >= maxCycle)
        throw std::out_of_range("SlotAllocator: cycle out of range");
    std::uint64_t cycle = earliest;
    for (;;) {
        std::uint64_t &slot = _slots[cycle & (ringSize - 1)];
        const std::uint64_t key = cycle + _base;
        if ((slot >> countBits) != key) {
            slot = (key << countBits) | 1;
            _maxKey = std::max(_maxKey, key);
            return cycle;
        }
        if ((slot & countMask) < _capacity) {
            ++slot;
            return cycle;
        }
        ++cycle;
    }
}

/** The timing core. */
class SuperscalarCore
{
  public:
    /**
     * @param config validated processor configuration
     * @param hook optional enhancement hook (not owned; may be null)
     */
    explicit SuperscalarCore(const ProcessorConfig &config,
                             ExecutionHook *hook = nullptr);

    /**
     * Become the core a fresh SuperscalarCore(@p config, @p hook)
     * would be: a run afterwards gives bit-identical CoreStats and
     * component statistics. The constructor is this call. Costs O(1)
     * in ring and cache size; the cache, TLB and BTB buffers are kept
     * and grow only for a geometry larger than any seen before. The
     * hook is installed last: if the call throws, the previous hook
     * stays and the core must be reconfigured again before use.
     */
    void reconfigure(const ProcessorConfig &config,
                     ExecutionHook *hook = nullptr);

    /** Forget the hook, e.g. before the object it points at dies. */
    void detachHook() { _hook = nullptr; }

    /**
     * Replay @p tracks' L1I, ITLB, L1D and DTLB outcomes in the next
     * run() instead of simulating those four structures (see
     * StreamTracks). The core must be freshly reconfigured, and the
     * run must cover the whole stream the tracks were built from;
     * reconfigure() and reset() detach them. Everything else,
     * including the L2 and all timing, stays live, and the run's
     * statistics are bit-identical to a live run's.
     */
    void replay(const L1Tracks &tracks) { _memory.replay(tracks); }

    /** Instructions between two calls of the poll (see setPoll). */
    static constexpr std::uint32_t pollInterval = 4096;

    /**
     * Call @p poll once every pollInterval instructions that run() and
     * warm() consume, counted across calls, until it is replaced. An
     * exception it throws abandons the run mid-stream (the engine's
     * attempt deadline throws DeadlineExceeded this way); reconfigure
     * the core before using it again. An empty function polls
     * nothing. reconfigure() keeps the poll.
     */
    void setPoll(std::function<void()> poll);

    /**
     * Run the whole recorded stream and return the summary
     * statistics. Statistics accumulate across calls.
     *
     * @param warmup_instructions leading instructions treated as
     *        cache/predictor warm-up: they execute normally but
     *        CoreStats::measuredCycles() excludes their cycles
     * @throws std::invalid_argument when a non-zero warm-up is not
     *         shorter than the stream
     */
    CoreStats run(std::span<const trace::Instruction> stream,
                  std::uint64_t warmup_instructions = 0);

    /** The same run over a stream pulled from @p source. */
    CoreStats run(trace::TraceSource &source,
                  std::uint64_t warmup_instructions = 0);

    /**
     * Functional-only execution: consume up to @p max_instructions
     * from @p source, advancing the caches, TLBs, BTB, branch
     * predictor, and RAS — but no cycle accounting. CoreStats is left
     * untouched, so a detailed run() may continue afterwards with its
     * cycle count unperturbed. This is the fast-forward mode of
     * SMARTS-style sampled simulation: microarchitectural state stays
     * warm between detailed sampling units at a fraction of the cost.
     *
     * @return the number of instructions actually consumed (less than
     *         @p max_instructions only when the source runs dry)
     */
    std::uint64_t warm(trace::TraceSource &source,
                       std::uint64_t max_instructions);

    /**
     * Restore construction-time state: pipeline occupancy, memory
     * hierarchy, predictor structures, and statistics. A reset core
     * re-running a rewound TraceSource produces bit-identical
     * CoreStats. Same as reconfigure() with the current config and
     * hook.
     */
    void reset();

    /** Cumulative statistics across all run() calls so far. */
    const CoreStats &stats() const { return _stats; }

    const MemorySystem &memory() const { return _memory; }
    const Btb &btb() const { return _btb; }
    const ReturnAddressStack &ras() const { return _ras; }
    const FuPool &intAluPool() const { return _intAlu; }
    const FuPool &fpAluPool() const { return _fpAlu; }
    const FuPool &intMultDivPool() const { return _intMultDiv; }
    const FuPool &fpMultDivPool() const { return _fpMultDiv; }

  private:
    /** Time one instruction (fetch, dispatch, issue, commit), count
     *  it for the poll, and latch the warm-up once the instruction
     *  count reaches @p warmup_target (0: no warm-up). */
    void step(const trace::Instruction &inst,
              std::uint64_t warmup_target);
    /** Count one consumed instruction towards the next poll. */
    void countForPoll();
    /** Issue an operation of latency @p latency, ready at @p ready,
     *  on the first unit of @p pool free for @p interval cycles.
     *  @return its completion cycle */
    std::uint64_t execute(FuPool &pool, std::uint64_t ready,
                          std::uint32_t interval, std::uint32_t latency);
    /** Handle prediction/redirect bookkeeping of a control op. */
    void handleControl(const trace::Instruction &inst,
                       std::uint64_t fetch_cycle);
    /** Functional-mode counterpart of handleControl: trains the
     *  predictor, BTB, and RAS without any timing side effects. */
    void warmControl(const trace::Instruction &inst);
    /** Apply queued commit-time predictor updates visible by @p cycle. */
    void drainPredictorUpdates(std::uint64_t cycle);
    /** Instruction count at which run() latches the warm-up, or 0. */
    std::uint64_t warmupTarget(std::uint64_t warmup_instructions,
                               std::uint64_t stream_length) const;

    ProcessorConfig _config;
    ExecutionHook *_hook = nullptr;
    MemorySystem _memory;
    /** Idle under Perfect prediction (handleControl and warmControl
     *  return before reaching it). */
    TwoLevelPredictor _predictor;
    Btb _btb;
    ReturnAddressStack _ras;
    FuPool _intAlu{"int-alu"};
    FuPool _fpAlu{"fp-alu"};
    FuPool _intMultDiv{"int-multdiv"};
    FuPool _fpMultDiv{"fp-multdiv"};
    SlotAllocator _issueSlots;
    SlotAllocator _memPorts;

    CoreStats _stats;

    // --- pipeline front-end state ---
    std::uint64_t _nextFetchCycle = 0;
    std::uint32_t _fetchSlotsLeft = 0;
    std::uint64_t _lastFetchBlock = ~std::uint64_t{0};
    /** Pending redirect: fetch may not resume before this cycle. */
    std::uint64_t _redirectCycle = 0;
    /** Clears the offset of a PC within its L1I block. */
    std::uint64_t _fetchBlockMask = 0;

    // --- window occupancy rings ---
    // Each ring holds the last ifq/rob/lsq entries' cycles; the
    // position is the slot of the instruction ring-size earlier,
    // which the current one overwrites. The rings start zeroed, and a
    // zero never holds an instruction back.
    std::vector<std::uint64_t> _dispatchHist; ///< IFQ occupancy
    std::vector<std::uint64_t> _commitHist;   ///< ROB occupancy
    std::vector<std::uint64_t> _memCommitHist; ///< LSQ occupancy
    std::uint32_t _lsqEntries = 0;
    std::uint32_t _ifqPos = 0;
    std::uint32_t _robPos = 0;
    std::uint32_t _lsqPos = 0;

    // --- register scoreboard ---
    std::vector<std::uint64_t> _regReady;

    // --- in-order stages ---
    std::uint64_t _dispatchCycleCur = 0;
    std::uint32_t _dispatchSlotsUsed = 0;
    std::uint64_t _commitCycleCur = 0;
    std::uint32_t _commitSlotsUsed = 0;
    std::uint64_t _prevCommitCycle = 0;

    // --- deferred (commit-time) predictor updates ---
    struct PendingUpdate
    {
        std::uint64_t visibleAt;
        std::uint64_t pc;
        bool taken;
        bool historyPending;
    };
    /** FIFO ring of a power-of-two size above ifq + rob: a branch
     *  fetched ifq + rob instructions ago has committed by the time
     *  the current one is fetched, so its update has drained. */
    std::vector<PendingUpdate> _pendingUpdates;
    std::uint64_t _pendingHead = 0; ///< next update to apply
    std::uint64_t _pendingTail = 0; ///< next free slot

    // --- poll ---
    std::function<void()> _poll;
    std::uint32_t _untilPoll = pollInterval;

    // Per-branch transient, set by handleControl for the current
    // instruction: resolved mispredict that must redirect fetch once
    // the branch's completion cycle is known.
    bool _branchMispredicted = false;
};

} // namespace rigor::sim

#endif // RIGOR_SIM_CORE_HH
