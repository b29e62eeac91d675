#include "sim/branch_predictor.hh"

#include <algorithm>
#include <stdexcept>

namespace rigor::sim
{

namespace
{

void
trainCounter(std::uint8_t &ctr, bool taken)
{
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

} // namespace

void
BranchPredictor::recordOutcome(bool correct)
{
    ++_stats.predictions;
    if (!correct)
        ++_stats.mispredictions;
}

// ---------------------------------------------------------------------
// TwoLevelPredictor
// ---------------------------------------------------------------------

TwoLevelPredictor::TwoLevelPredictor(std::uint32_t table_entries,
                                     std::uint32_t history_bits)
    : _counters(table_entries, 1), // weakly not-taken
      _historyBits(history_bits), _history(0),
      _indexMask(table_entries - 1)
{
    if (table_entries == 0 ||
        (table_entries & (table_entries - 1)) != 0)
        throw std::invalid_argument(
            "TwoLevelPredictor: table size must be a power of two");
    if (history_bits == 0 || history_bits > 30)
        throw std::invalid_argument(
            "TwoLevelPredictor: history bits must be in [1, 30]");
}

std::uint32_t
TwoLevelPredictor::index(std::uint64_t pc, std::uint32_t history) const
{
    return static_cast<std::uint32_t>((pc >> 2) ^ history) & _indexMask;
}

bool
TwoLevelPredictor::predict(std::uint64_t pc)
{
    return _counters[index(pc, _history)] >= 2;
}

void
TwoLevelPredictor::updateHistory(bool taken)
{
    _history = ((_history << 1) | (taken ? 1u : 0u)) &
               ((1u << _historyBits) - 1u);
}

void
TwoLevelPredictor::updateCounters(std::uint64_t pc, bool taken)
{
    // Note: trains with the *current* history; in a cycle-accurate
    // model the fetch-time history would be carried with the branch.
    // For this timing model the approximation only perturbs training
    // during the few cycles a branch is in flight.
    trainCounter(_counters[index(pc, _history)], taken);
}

// ---------------------------------------------------------------------
// BimodalPredictor
// ---------------------------------------------------------------------

BimodalPredictor::BimodalPredictor(std::uint32_t table_entries)
    : _counters(table_entries, 1), _indexMask(table_entries - 1)
{
    if (table_entries == 0 ||
        (table_entries & (table_entries - 1)) != 0)
        throw std::invalid_argument(
            "BimodalPredictor: table size must be a power of two");
}

bool
BimodalPredictor::predict(std::uint64_t pc)
{
    return _counters[(pc >> 2) & _indexMask] >= 2;
}

void
BimodalPredictor::updateHistory(bool)
{
    // No global history.
}

void
BimodalPredictor::updateCounters(std::uint64_t pc, bool taken)
{
    trainCounter(_counters[(pc >> 2) & _indexMask], taken);
}

// ---------------------------------------------------------------------
// LocalTwoLevelPredictor
// ---------------------------------------------------------------------

LocalTwoLevelPredictor::LocalTwoLevelPredictor(
    std::uint32_t history_entries, std::uint32_t history_bits,
    std::uint32_t table_entries)
    : _histories(history_entries, 0), _counters(table_entries, 1),
      _historyBits(history_bits), _historyMask(history_entries - 1),
      _tableMask(table_entries - 1)
{
    if (history_entries == 0 ||
        (history_entries & (history_entries - 1)) != 0)
        throw std::invalid_argument(
            "LocalTwoLevelPredictor: history table size must be a "
            "power of two");
    if (table_entries == 0 ||
        (table_entries & (table_entries - 1)) != 0)
        throw std::invalid_argument(
            "LocalTwoLevelPredictor: pattern table size must be a "
            "power of two");
    if (history_bits == 0 || history_bits > 16)
        throw std::invalid_argument(
            "LocalTwoLevelPredictor: history bits must be in [1, 16]");
}

std::uint32_t
LocalTwoLevelPredictor::historyIndex(std::uint64_t pc) const
{
    return static_cast<std::uint32_t>(pc >> 2) & _historyMask;
}

bool
LocalTwoLevelPredictor::predict(std::uint64_t pc)
{
    const std::uint16_t history = _histories[historyIndex(pc)];
    return _counters[history & _tableMask] >= 2;
}

void
LocalTwoLevelPredictor::updateHistory(bool taken)
{
    // Local history is per-branch: the shift happens in
    // updateCounters where the PC is known. The global-history entry
    // point records the PC of the latest predicted branch instead.
    (void)taken;
}

void
LocalTwoLevelPredictor::updateCounters(std::uint64_t pc, bool taken)
{
    std::uint16_t &history = _histories[historyIndex(pc)];
    trainCounter(_counters[history & _tableMask], taken);
    history = static_cast<std::uint16_t>(
        ((history << 1) | (taken ? 1u : 0u)) &
        ((1u << _historyBits) - 1u));
}

// ---------------------------------------------------------------------
// TournamentPredictor
// ---------------------------------------------------------------------

TournamentPredictor::TournamentPredictor()
    : _global(4096, 8), _local(1024, 10, 1024),
      _chooser(4096, 2), // weakly prefer the global component
      _chooserMask(4095)
{
}

bool
TournamentPredictor::predict(std::uint64_t pc)
{
    const bool use_global =
        _chooser[(pc >> 2) & _chooserMask] >= 2;
    return use_global ? _global.predict(pc) : _local.predict(pc);
}

void
TournamentPredictor::updateHistory(bool taken)
{
    _global.updateHistory(taken);
}

void
TournamentPredictor::updateCounters(std::uint64_t pc, bool taken)
{
    // Re-derive each component's current prediction to train the
    // chooser toward whichever side is right (approximates carrying
    // the fetch-time predictions with the branch).
    const bool g = _global.predict(pc);
    const bool l = _local.predict(pc);
    if (g != l)
        trainCounter(_chooser[(pc >> 2) & _chooserMask], g == taken);
    _global.updateCounters(pc, taken);
    _local.updateCounters(pc, taken);
}

// ---------------------------------------------------------------------
// PerfectPredictor
// ---------------------------------------------------------------------

bool
PerfectPredictor::predict(std::uint64_t)
{
    return _next;
}

void
PerfectPredictor::updateHistory(bool)
{
}

void
PerfectPredictor::updateCounters(std::uint64_t, bool)
{
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

std::unique_ptr<BranchPredictor>
makeBranchPredictor(BranchPredictorKind kind)
{
    switch (kind) {
      case BranchPredictorKind::TwoLevel:
        return std::make_unique<TwoLevelPredictor>();
      case BranchPredictorKind::Bimodal:
        return std::make_unique<BimodalPredictor>();
      case BranchPredictorKind::LocalTwoLevel:
        return std::make_unique<LocalTwoLevelPredictor>();
      case BranchPredictorKind::Tournament:
        return std::make_unique<TournamentPredictor>();
      case BranchPredictorKind::Perfect:
        return std::make_unique<PerfectPredictor>();
    }
    throw std::logic_error("makeBranchPredictor: unreachable");
}

} // namespace rigor::sim
