#include "sim/core.hh"

#include <algorithm>
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

std::uint64_t
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
                        config.intAluThroughput);
    _fpAlu.reconfigure(config.fpAlus, config.fpAluLatency,
                       config.fpAluThroughput);
    _intMultDiv.reconfigure(config.intMultDivUnits,
                            config.intMultLatency,
                            config.intMultThroughput);
    _fpMultDiv.reconfigure(config.fpMultDivUnits, config.fpMultLatency,
                           config.fpMultThroughput());
    _issueSlots.reconfigure(config.machineWidth);
    _memPorts.reconfigure(config.memPorts);

    _stats = CoreStats{};

    _nextFetchCycle = 0;
    _fetchSlotsLeft = config.machineWidth;
    _lastFetchBlock = ~std::uint64_t{0};
    _redirectCycle = 0;

    _dispatchHist.assign(config.ifqEntries, 0);
    _commitHist.assign(config.robEntries, 0);
    _memCommitHist.assign(config.lsqEntries(), 0);
    _instrIndex = 0;
    _memIndex = 0;

    _regReady.assign(trace::numArchRegs, 0);

    _dispatchCycleCur = 0;
    _dispatchSlotsUsed = 0;
    _commitCycleCur = 0;
    _commitSlotsUsed = 0;
    _prevCommitCycle = 0;

    _pendingUpdates.clear();
    _branchMispredicted = false;
    _hook = hook;
}

void
SuperscalarCore::drainPredictorUpdates(std::uint64_t cycle)
{
    while (!_pendingUpdates.empty() &&
           _pendingUpdates.front().visibleAt <= cycle) {
        const PendingUpdate &u = _pendingUpdates.front();
        if (u.historyPending)
            _predictor.updateHistory(u.taken);
        _predictor.updateCounters(u.pc, u.taken);
        _pendingUpdates.pop_front();
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
        if (_config.specBranchUpdate == BranchUpdateTiming::InDecode) {
            // Speculative decode-time history update, with the
            // counters still trained at commit.
            _predictor.updateHistory(inst.taken);
            _pendingUpdates.push_back(
                {0 /* patched by caller */, inst.pc, inst.taken, false});
        } else {
            _pendingUpdates.push_back(
                {0 /* patched by caller */, inst.pc, inst.taken, true});
        }
    }

    if (!direction_correct) {
        _branchMispredicted = true;
        return;
    }

    // Correct direction. A taken control transfer needs its target
    // from the BTB at fetch; a miss costs a short decode-redirect
    // bubble (not a full mispredict).
    if (inst.taken) {
        std::uint64_t target = 0;
        if (!_btb.lookup(inst.pc, &target) || target != inst.target) {
            ++_stats.btbMisfetches;
            _redirectCycle = std::max(
                _redirectCycle, fetch_cycle + 1 + btbMisfetchBubble);
        }
        _btb.update(inst.pc, inst.target);
    }
}

CoreStats
SuperscalarCore::run(trace::TraceSource &source,
                     std::uint64_t warmup_instructions)
{
    Instruction inst;
    const std::uint32_t width = _config.machineWidth;
    const std::uint32_t ifq = _config.ifqEntries;
    const std::uint32_t rob = _config.robEntries;
    const std::uint32_t lsq = _config.lsqEntries();
    const std::uint64_t block_mask =
        ~(std::uint64_t{_config.l1i.blockBytes} - 1);

    // An over-long warm-up would consume the whole stream: the latch
    // below would never fire, warmupCycles would stay 0, and
    // measuredCycles() would silently include the warm-up. Reject it
    // up front instead of returning a corrupted response.
    if (warmup_instructions > 0 &&
        warmup_instructions >= source.length())
        throw std::invalid_argument(
            "SuperscalarCore::run: warm-up of " +
            std::to_string(warmup_instructions) +
            " instructions consumes the whole " +
            std::to_string(source.length()) +
            "-instruction stream; nothing would be measured");

    // run() accumulates across calls, so the latch must compare
    // against this call's instruction count, not the lifetime total.
    const std::uint64_t warmup_target =
        warmup_instructions == 0
            ? 0
            : _stats.instructions + warmup_instructions;

    while (source.next(inst)) {
        // ---------------- Fetch ----------------
        // IFQ back-pressure: cannot fetch until the instruction
        // ifqEntries earlier has dispatched.
        std::uint64_t fetch_cycle = _nextFetchCycle;
        if (_instrIndex >= ifq) {
            const std::uint64_t ifq_free =
                _dispatchHist[_instrIndex % ifq];
            if (fetch_cycle < ifq_free) {
                fetch_cycle = ifq_free;
                _fetchSlotsLeft = width;
            }
        }
        if (fetch_cycle < _redirectCycle) {
            fetch_cycle = _redirectCycle;
            _fetchSlotsLeft = width;
        }

        // I-cache access on block change (or after any redirect,
        // which also changes the block).
        std::uint64_t fetch_done = fetch_cycle;
        const std::uint64_t block = inst.pc & block_mask;
        if (block != _lastFetchBlock) {
            const std::uint64_t lat =
                _memory.instructionFetch(fetch_cycle, inst.pc);
            fetch_done = fetch_cycle + lat - 1;
            if (lat > _config.l1i.latency) {
                // Miss: the front end stalls until the block arrives.
                _nextFetchCycle = fetch_done;
                _fetchSlotsLeft = width;
            }
            _lastFetchBlock = block;
        }

        // Consume a fetch slot.
        if (_fetchSlotsLeft == 0) {
            ++fetch_cycle;
            fetch_done = std::max(fetch_done, fetch_cycle);
            _fetchSlotsLeft = width;
        }
        --_fetchSlotsLeft;
        _nextFetchCycle = std::max(_nextFetchCycle, fetch_cycle);

        // Control-flow prediction.
        const bool is_control = trace::isControlOp(inst.op);
        if (is_control) {
            handleControl(inst, fetch_cycle);
            if (inst.taken && !_branchMispredicted) {
                // Taken transfer ends the fetch group.
                _nextFetchCycle =
                    std::max(_nextFetchCycle, fetch_cycle + 1);
                _fetchSlotsLeft = width;
                _lastFetchBlock = ~std::uint64_t{0};
            }
        }

        // ---------------- Dispatch ----------------
        std::uint64_t dispatch = fetch_done + 1;
        if (_instrIndex >= rob)
            dispatch = std::max(dispatch,
                                _commitHist[_instrIndex % rob] + 1);
        const bool is_mem = trace::isMemOp(inst.op);
        if (is_mem && _memIndex >= lsq)
            dispatch = std::max(dispatch,
                                _memCommitHist[_memIndex % lsq] + 1);

        // Dispatch width (in-order, monotonic).
        if (dispatch < _dispatchCycleCur)
            dispatch = _dispatchCycleCur;
        if (dispatch == _dispatchCycleCur &&
            _dispatchSlotsUsed >= width)
            ++dispatch;
        if (dispatch > _dispatchCycleCur) {
            _dispatchCycleCur = dispatch;
            _dispatchSlotsUsed = 0;
        }
        ++_dispatchSlotsUsed;
        _dispatchHist[_instrIndex % ifq] = dispatch;

        // ---------------- Issue / execute ----------------
        std::uint64_t ready = dispatch + 1;
        if (inst.srcA != trace::noReg)
            ready = std::max(ready, _regReady[inst.srcA]);
        if (inst.srcB != trace::noReg)
            ready = std::max(ready, _regReady[inst.srcB]);

        std::uint64_t complete;
        if (_hook && _hook->intercept(inst)) {
            // Enhancement supplies the result: no functional unit,
            // zero execution latency.
            ++_stats.interceptedInstructions;
            complete = _issueSlots.allocate(ready);
        } else {
            switch (inst.op) {
              case OpClass::Load: {
                ++_stats.loads;
                const std::uint64_t issue = _issueSlots.allocate(ready);
                const std::uint64_t port = _memPorts.allocate(issue);
                const std::uint64_t lat =
                    _memory.dataAccess(port, inst.memAddr, false);
                complete = port + lat;
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
              case OpClass::IntMult: {
                const std::uint64_t issue = _issueSlots.allocate(
                    std::max(ready, _intMultDiv.earliestStart(ready)));
                const std::uint64_t start = _intMultDiv.reserveFor(
                    issue, _config.intMultThroughput);
                complete = start + _config.intMultLatency;
                break;
              }
              case OpClass::IntDiv: {
                const std::uint64_t issue = _issueSlots.allocate(
                    std::max(ready, _intMultDiv.earliestStart(ready)));
                const std::uint64_t start = _intMultDiv.reserveFor(
                    issue, _config.intDivThroughput());
                complete = start + _config.intDivLatency;
                break;
              }
              case OpClass::FpAlu: {
                const std::uint64_t issue = _issueSlots.allocate(
                    std::max(ready, _fpAlu.earliestStart(ready)));
                const std::uint64_t start = _fpAlu.reserveFor(
                    issue, _config.fpAluThroughput);
                complete = start + _config.fpAluLatency;
                break;
              }
              case OpClass::FpMult: {
                const std::uint64_t issue = _issueSlots.allocate(
                    std::max(ready, _fpMultDiv.earliestStart(ready)));
                const std::uint64_t start = _fpMultDiv.reserveFor(
                    issue, _config.fpMultThroughput());
                complete = start + _config.fpMultLatency;
                break;
              }
              case OpClass::FpDiv: {
                const std::uint64_t issue = _issueSlots.allocate(
                    std::max(ready, _fpMultDiv.earliestStart(ready)));
                const std::uint64_t start = _fpMultDiv.reserveFor(
                    issue, _config.fpDivThroughput());
                complete = start + _config.fpDivLatency;
                break;
              }
              case OpClass::FpSqrt: {
                const std::uint64_t issue = _issueSlots.allocate(
                    std::max(ready, _fpMultDiv.earliestStart(ready)));
                const std::uint64_t start = _fpMultDiv.reserveFor(
                    issue, _config.fpSqrtThroughput());
                complete = start + _config.fpSqrtLatency;
                break;
              }
              case OpClass::IntAlu:
              case OpClass::Branch:
              case OpClass::Call:
              case OpClass::Return:
              default: {
                const std::uint64_t issue = _issueSlots.allocate(
                    std::max(ready, _intAlu.earliestStart(ready)));
                const std::uint64_t start = _intAlu.reserveFor(
                    issue, _config.intAluThroughput);
                complete = start + _config.intAluLatency;
                break;
              }
            }
        }

        if (inst.dst != trace::noReg)
            _regReady[inst.dst] = complete;

        // Mispredicted control transfer: fetch resumes after the
        // branch resolves plus the misprediction penalty.
        if (is_control && _branchMispredicted) {
            ++_stats.branchMispredicts;
            _redirectCycle = std::max(
                _redirectCycle, complete + _config.bpredPenalty);
            _lastFetchBlock = ~std::uint64_t{0};
            _branchMispredicted = false;
        }

        // ---------------- Commit ----------------
        std::uint64_t commit = std::max(complete + 1, _prevCommitCycle);
        if (commit < _commitCycleCur)
            commit = _commitCycleCur;
        if (commit == _commitCycleCur && _commitSlotsUsed >= width)
            ++commit;
        if (commit > _commitCycleCur) {
            _commitCycleCur = commit;
            _commitSlotsUsed = 0;
        }
        ++_commitSlotsUsed;
        _prevCommitCycle = commit;
        _commitHist[_instrIndex % rob] = commit;
        if (is_mem)
            _memCommitHist[_memIndex++ % lsq] = commit;

        // Commit-time predictor updates become visible at commit.
        if (is_control && inst.op == OpClass::Branch &&
            !_pendingUpdates.empty() &&
            _pendingUpdates.back().visibleAt == 0)
            _pendingUpdates.back().visibleAt = commit;

        ++_instrIndex;
        ++_stats.instructions;
        _stats.cycles = std::max(_stats.cycles, commit);
        if (warmup_target != 0 &&
            _stats.instructions == warmup_target) {
            _stats.warmupInstructions = _stats.instructions;
            _stats.warmupCycles = _stats.cycles;
        }
    }

    return _stats;
}

std::uint64_t
SuperscalarCore::warm(trace::TraceSource &source,
                      std::uint64_t max_instructions)
{
    Instruction inst;
    const std::uint64_t block_mask =
        ~(std::uint64_t{_config.l1i.blockBytes} - 1);

    // Time does not advance in functional mode; queued commit-time
    // predictor updates from a preceding detailed stretch all become
    // visible "now".
    drainPredictorUpdates(~std::uint64_t{0});

    std::uint64_t consumed = 0;
    while (consumed < max_instructions && source.next(inst)) {
        ++consumed;
        const std::uint64_t block = inst.pc & block_mask;
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

    if (inst.taken) {
        std::uint64_t target = 0;
        _btb.lookup(inst.pc, &target);
        _btb.update(inst.pc, inst.target);
    }
}

void
SuperscalarCore::reset()
{
    reconfigure(_config, _hook);
}

} // namespace rigor::sim
