#include "sim/core.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace rigor::sim
{

using trace::Instruction;
using trace::OpClass;

namespace
{

/** Fetch bubble when a taken branch hits the predictor but misses the
 *  BTB: the target is produced at decode instead of fetch. */
constexpr std::uint64_t btbMisfetchBubble = 2;

} // namespace

// ---------------------------------------------------------------------
// SlotAllocator
// ---------------------------------------------------------------------

SlotAllocator::SlotAllocator(std::uint32_t capacity_per_cycle)
    : _slots(ringSize, 0)
{
    reconfigure(capacity_per_cycle);
}

void
SlotAllocator::reconfigure(std::uint32_t capacity_per_cycle)
{
    if (capacity_per_cycle == 0 || capacity_per_cycle > countMask)
        throw std::invalid_argument(
            "SlotAllocator: capacity per cycle must be in [1, 255]");
    _capacity = capacity_per_cycle;
    reset();
}

void
SlotAllocator::reset()
{
    _base = _maxKey + 1;
    if (_base >= maxBase) {
        // Once per 2^55 booked cycles: start the keys over.
        std::fill(_slots.begin(), _slots.end(), 0);
        _base = 1;
        _maxKey = 0;
    }
}

// ---------------------------------------------------------------------
// SuperscalarCore
// ---------------------------------------------------------------------

SuperscalarCore::SuperscalarCore(const ProcessorConfig &config,
                                 ExecutionHook *hook)
{
    reconfigure(config, hook);
}

void
SuperscalarCore::reconfigure(const ProcessorConfig &config,
                             ExecutionHook *hook)
{
    config.validate();
    _config = config;
    _memory.reconfigure(config);
    _predictor.reset();
    _btb.reconfigure(config.btbEntries, config.btbAssoc);
    _ras.reconfigure(config.rasEntries);
    _intAlu.reconfigure(config.intAlus, config.intAluLatency,
                        pipelinedIssueInterval);
    _fpAlu.reconfigure(config.fpAlus, config.fpAluLatency,
                       pipelinedIssueInterval);
    _intMultDiv.reconfigure(config.intMultDivUnits,
                            config.intMultLatency,
                            pipelinedIssueInterval);
    _fpMultDiv.reconfigure(config.fpMultDivUnits, config.fpMultLatency,
                           config.fpMultThroughput());
    _issueSlots.reconfigure(coreWidth);
    _memPorts.reconfigure(config.memPorts);

    _stats = CoreStats{};

    _nextFetchCycle = 0;
    _fetchSlotsLeft = coreWidth;
    _lastFetchBlock = ~std::uint64_t{0};
    _redirectCycle = 0;
    _fetchBlockMask = ~(std::uint64_t{config.l1i.blockBytes} - 1);

    _lsqEntries = config.lsqEntries();
    _dispatchHist.assign(config.ifqEntries, 0);
    _commitHist.assign(config.robEntries, 0);
    _memCommitHist.assign(_lsqEntries, 0);
    _ifqPos = 0;
    _robPos = 0;
    _lsqPos = 0;

    _regReady.assign(trace::numArchRegs, 0);

    _dispatchCycleCur = 0;
    _dispatchSlotsUsed = 0;
    _commitCycleCur = 0;
    _commitSlotsUsed = 0;
    _prevCommitCycle = 0;

    _pendingUpdates.resize(std::bit_ceil(
        std::size_t{config.ifqEntries} + config.robEntries + 1));
    _pendingHead = 0;
    _pendingTail = 0;
    _branchMispredicted = false;
    _hook = hook;
}

void
SuperscalarCore::setPoll(std::function<void()> poll)
{
    _poll = std::move(poll);
    _untilPoll = pollInterval;
}

inline void
SuperscalarCore::countForPoll()
{
    if (--_untilPoll == 0) {
        _untilPoll = pollInterval;
        if (_poll)
            _poll();
    }
}

void
SuperscalarCore::drainPredictorUpdates(std::uint64_t cycle)
{
    const std::uint64_t mask = _pendingUpdates.size() - 1;
    while (_pendingHead != _pendingTail &&
           _pendingUpdates[_pendingHead & mask].visibleAt <= cycle) {
        const PendingUpdate &u = _pendingUpdates[_pendingHead & mask];
        if (u.historyPending)
            _predictor.updateHistory(u.taken);
        _predictor.updateCounters(u.pc, u.taken);
        ++_pendingHead;
    }
}

void
SuperscalarCore::handleControl(const Instruction &inst,
                               std::uint64_t fetch_cycle)
{
    ++_stats.branches;
    _branchMispredicted = false;

    if (_config.bpred == BranchPredictorKind::Perfect) {
        // Perfect direction and target prediction: no bubbles at all;
        // a taken branch still ends the fetch group (handled by the
        // caller).
        return;
    }

    drainPredictorUpdates(fetch_cycle);

    if (inst.op == OpClass::Return) {
        // Returns are predicted by the RAS, not the direction
        // predictor (they are unconditionally taken).
        const auto predicted_target = _ras.pop();
        if (!predicted_target || *predicted_target != inst.target) {
            ++_stats.rasMispredicts;
            _branchMispredicted = true;
        }
        return;
    }

    bool predicted_taken;
    if (inst.op == OpClass::Call) {
        // Calls are unconditionally taken; push the return address.
        predicted_taken = true;
        _ras.push(inst.retAddr);
    } else {
        predicted_taken = _predictor.predict(inst.pc);
    }

    const bool direction_correct = predicted_taken == inst.taken;
    if (inst.op == OpClass::Branch) {
        if (_pendingTail - _pendingHead == _pendingUpdates.size())
            throw std::logic_error(
                "SuperscalarCore: pending predictor updates exceed "
                "the ifq + rob window");
        // Speculative decode-time history update, with the counters
        // still trained at commit; or both at commit. The commit
        // cycle is patched in by step().
        const bool in_decode =
            _config.specBranchUpdate == BranchUpdateTiming::InDecode;
        if (in_decode)
            _predictor.updateHistory(inst.taken);
        const std::uint64_t mask = _pendingUpdates.size() - 1;
        _pendingUpdates[_pendingTail++ & mask] = {0, inst.pc, inst.taken,
                                                  !in_decode};
    }

    if (!direction_correct) {
        _branchMispredicted = true;
        return;
    }

    // Correct direction. A taken control transfer needs its target
    // from the BTB at fetch; a miss costs a short decode-redirect
    // bubble (not a full mispredict).
    if (inst.taken && !_btb.access(inst.pc, inst.target)) {
        ++_stats.btbMisfetches;
        _redirectCycle =
            std::max(_redirectCycle, fetch_cycle + 1 + btbMisfetchBubble);
    }
}

inline std::uint64_t
SuperscalarCore::execute(FuPool &pool, std::uint64_t ready,
                         std::uint32_t interval, std::uint32_t latency)
{
    const std::uint64_t issue =
        _issueSlots.allocate(pool.earliestStart(ready));
    return pool.book(issue, interval) + latency;
}

void
SuperscalarCore::step(const Instruction &inst,
                      std::uint64_t warmup_target)
{
    countForPoll();

    // ---------------- Fetch ----------------
    // IFQ back-pressure: cannot fetch until the instruction
    // ifqEntries earlier has dispatched.
    std::uint64_t fetch_cycle = _nextFetchCycle;
    const std::uint64_t ifq_free = _dispatchHist[_ifqPos];
    if (fetch_cycle < ifq_free) {
        fetch_cycle = ifq_free;
        _fetchSlotsLeft = coreWidth;
    }
    if (fetch_cycle < _redirectCycle) {
        fetch_cycle = _redirectCycle;
        _fetchSlotsLeft = coreWidth;
    }

    // I-cache access on block change (or after any redirect, which
    // also changes the block).
    std::uint64_t fetch_done = fetch_cycle;
    const std::uint64_t block = inst.pc & _fetchBlockMask;
    if (block != _lastFetchBlock) {
        const std::uint64_t lat =
            _memory.instructionFetch(fetch_cycle, inst.pc);
        fetch_done = fetch_cycle + lat - 1;
        if (lat > _config.l1i.latency) {
            // Miss: the front end stalls until the block arrives.
            _nextFetchCycle = fetch_done;
            _fetchSlotsLeft = coreWidth;
        }
        _lastFetchBlock = block;
    }

    // Consume a fetch slot.
    if (_fetchSlotsLeft == 0) {
        ++fetch_cycle;
        fetch_done = std::max(fetch_done, fetch_cycle);
        _fetchSlotsLeft = coreWidth;
    }
    --_fetchSlotsLeft;
    _nextFetchCycle = std::max(_nextFetchCycle, fetch_cycle);

    // Control-flow prediction.
    const bool is_control = trace::isControlOp(inst.op);
    if (is_control) {
        handleControl(inst, fetch_cycle);
        if (inst.taken && !_branchMispredicted) {
            // Taken transfer ends the fetch group.
            _nextFetchCycle = std::max(_nextFetchCycle, fetch_cycle + 1);
            _fetchSlotsLeft = coreWidth;
            _lastFetchBlock = ~std::uint64_t{0};
        }
    }

    // ---------------- Dispatch ----------------
    // ROB and LSQ back-pressure: the instruction robEntries (memory
    // operation lsqEntries) earlier must have committed.
    std::uint64_t dispatch =
        std::max(fetch_done, _commitHist[_robPos]) + 1;
    const bool is_mem = trace::isMemOp(inst.op);
    if (is_mem)
        dispatch = std::max(dispatch, _memCommitHist[_lsqPos] + 1);

    // Dispatch width (in-order, monotonic).
    if (dispatch < _dispatchCycleCur)
        dispatch = _dispatchCycleCur;
    if (dispatch == _dispatchCycleCur && _dispatchSlotsUsed >= coreWidth)
        ++dispatch;
    if (dispatch > _dispatchCycleCur) {
        _dispatchCycleCur = dispatch;
        _dispatchSlotsUsed = 0;
    }
    ++_dispatchSlotsUsed;
    _dispatchHist[_ifqPos] = dispatch;

    // ---------------- Issue / execute ----------------
    std::uint64_t ready = dispatch + 1;
    if (inst.srcA != trace::noReg)
        ready = std::max(ready, _regReady[inst.srcA]);
    if (inst.srcB != trace::noReg)
        ready = std::max(ready, _regReady[inst.srcB]);

    std::uint64_t complete;
    if (_hook && !is_mem && _hook->intercept(inst)) {
        // Enhancement supplies the result: no functional unit, zero
        // execution latency.
        ++_stats.interceptedInstructions;
        complete = _issueSlots.allocate(ready);
    } else {
        switch (inst.op) {
          case OpClass::Load: {
            ++_stats.loads;
            const std::uint64_t issue = _issueSlots.allocate(ready);
            const std::uint64_t port = _memPorts.allocate(issue);
            complete = port + _memory.dataAccess(port, inst.memAddr, false);
            break;
          }
          case OpClass::Store: {
            ++_stats.stores;
            const std::uint64_t issue = _issueSlots.allocate(ready);
            const std::uint64_t port = _memPorts.allocate(issue);
            _memory.dataAccess(port, inst.memAddr, true);
            // The store buffer hides the access latency.
            complete = port + 1;
            break;
          }
          case OpClass::IntMult:
            complete = execute(_intMultDiv, ready,
                               pipelinedIssueInterval,
                               _config.intMultLatency);
            break;
          case OpClass::IntDiv:
            complete = execute(_intMultDiv, ready,
                               _config.intDivThroughput(),
                               _config.intDivLatency);
            break;
          case OpClass::FpAlu:
            complete = execute(_fpAlu, ready, pipelinedIssueInterval,
                               _config.fpAluLatency);
            break;
          case OpClass::FpMult:
            complete = execute(_fpMultDiv, ready,
                               _config.fpMultThroughput(),
                               _config.fpMultLatency);
            break;
          case OpClass::FpDiv:
            complete = execute(_fpMultDiv, ready,
                               _config.fpDivThroughput(),
                               _config.fpDivLatency);
            break;
          case OpClass::FpSqrt:
            complete = execute(_fpMultDiv, ready,
                               _config.fpSqrtThroughput(),
                               _config.fpSqrtLatency);
            break;
          case OpClass::IntAlu:
          case OpClass::Branch:
          case OpClass::Call:
          case OpClass::Return:
          default:
            complete = execute(_intAlu, ready, pipelinedIssueInterval,
                               _config.intAluLatency);
            break;
        }
    }

    if (inst.dst != trace::noReg)
        _regReady[inst.dst] = complete;

    // Mispredicted control transfer: fetch resumes after the branch
    // resolves plus the misprediction penalty.
    if (is_control && _branchMispredicted) {
        ++_stats.branchMispredicts;
        _redirectCycle =
            std::max(_redirectCycle, complete + _config.bpredPenalty);
        _lastFetchBlock = ~std::uint64_t{0};
        _branchMispredicted = false;
    }

    // ---------------- Commit ----------------
    std::uint64_t commit = std::max(complete + 1, _prevCommitCycle);
    if (commit < _commitCycleCur)
        commit = _commitCycleCur;
    if (commit == _commitCycleCur && _commitSlotsUsed >= coreWidth)
        ++commit;
    if (commit > _commitCycleCur) {
        _commitCycleCur = commit;
        _commitSlotsUsed = 0;
    }
    ++_commitSlotsUsed;
    _prevCommitCycle = commit;
    _commitHist[_robPos] = commit;
    if (is_mem) {
        _memCommitHist[_lsqPos] = commit;
        if (++_lsqPos == _lsqEntries)
            _lsqPos = 0;
    }
    if (++_ifqPos == _config.ifqEntries)
        _ifqPos = 0;
    if (++_robPos == _config.robEntries)
        _robPos = 0;

    // Commit-time predictor updates become visible at commit.
    if (inst.op == OpClass::Branch && _pendingHead != _pendingTail) {
        const std::uint64_t mask = _pendingUpdates.size() - 1;
        PendingUpdate &last = _pendingUpdates[(_pendingTail - 1) & mask];
        if (last.visibleAt == 0)
            last.visibleAt = commit;
    }

    ++_stats.instructions;
    _stats.cycles = std::max(_stats.cycles, commit);
    if (_stats.instructions == warmup_target) {
        _stats.warmupInstructions = _stats.instructions;
        _stats.warmupCycles = _stats.cycles;
    }
}

std::uint64_t
SuperscalarCore::warmupTarget(std::uint64_t warmup_instructions,
                              std::uint64_t stream_length) const
{
    if (warmup_instructions == 0)
        return 0;
    // An over-long warm-up would consume the whole stream: the latch
    // would never fire, warmupCycles would stay 0, and
    // measuredCycles() would silently include the warm-up. Reject it
    // up front instead of returning a corrupted response.
    if (warmup_instructions >= stream_length)
        throw std::invalid_argument(
            "SuperscalarCore::run: warm-up of " +
            std::to_string(warmup_instructions) +
            " instructions consumes the whole " +
            std::to_string(stream_length) +
            "-instruction stream; nothing would be measured");
    // run() accumulates across calls, so the latch compares against
    // this call's instruction count, not the lifetime total.
    return _stats.instructions + warmup_instructions;
}

CoreStats
SuperscalarCore::run(std::span<const Instruction> stream,
                     std::uint64_t warmup_instructions)
{
    const std::uint64_t warmup_target =
        warmupTarget(warmup_instructions, stream.size());
    for (const Instruction &inst : stream)
        step(inst, warmup_target);
    return _stats;
}

CoreStats
SuperscalarCore::run(trace::TraceSource &source,
                     std::uint64_t warmup_instructions)
{
    const std::uint64_t warmup_target =
        warmupTarget(warmup_instructions, source.length());
    Instruction inst;
    while (source.next(inst))
        step(inst, warmup_target);
    return _stats;
}

std::uint64_t
SuperscalarCore::warm(trace::TraceSource &source,
                      std::uint64_t max_instructions)
{
    Instruction inst;

    // Time does not advance in functional mode; queued commit-time
    // predictor updates from a preceding detailed stretch all become
    // visible "now".
    drainPredictorUpdates(~std::uint64_t{0});

    std::uint64_t consumed = 0;
    while (consumed < max_instructions && source.next(inst)) {
        countForPoll();
        ++consumed;
        const std::uint64_t block = inst.pc & _fetchBlockMask;
        if (block != _lastFetchBlock) {
            _memory.warmInstructionFetch(inst.pc);
            _lastFetchBlock = block;
        }
        if (trace::isControlOp(inst.op)) {
            warmControl(inst);
            if (inst.taken)
                _lastFetchBlock = ~std::uint64_t{0};
        }
        if (trace::isMemOp(inst.op))
            _memory.warmDataAccess(inst.memAddr);
    }
    return consumed;
}

void
SuperscalarCore::warmControl(const Instruction &inst)
{
    if (_config.bpred == BranchPredictorKind::Perfect)
        return; // nothing to train

    if (inst.op == OpClass::Return) {
        _ras.pop();
        return;
    }
    if (inst.op == OpClass::Call) {
        _ras.push(inst.retAddr);
    } else {
        // Train with the fetch-order prediction consumed, matching
        // the detailed path's predict-then-update sequence.
        const bool predicted_taken = _predictor.predict(inst.pc);
        if (inst.op == OpClass::Branch) {
            _predictor.updateHistory(inst.taken);
            _predictor.updateCounters(inst.pc, inst.taken);
        }
        if (predicted_taken != inst.taken)
            return; // detailed path skips BTB work on a mispredict
    }

    if (inst.taken)
        _btb.access(inst.pc, inst.target);
}

void
SuperscalarCore::reset()
{
    reconfigure(_config, _hook);
}

} // namespace rigor::sim
