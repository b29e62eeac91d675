#include "sim/branch_predictor.hh"

#include <algorithm>
#include <stdexcept>

namespace rigor::sim
{

namespace
{

/** Counter value of a fresh table entry: weakly not taken. */
constexpr std::uint8_t kInitialCounter = 1;

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

TwoLevelPredictor::TwoLevelPredictor(std::uint32_t table_entries,
                                     std::uint32_t history_bits)
    : _counters(table_entries, kInitialCounter),
      _historyBits(history_bits), _indexMask(table_entries - 1)
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
TwoLevelPredictor::predict(std::uint64_t pc) const
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

void
TwoLevelPredictor::reset()
{
    std::fill(_counters.begin(), _counters.end(), kInitialCounter);
    _history = 0;
}

} // namespace rigor::sim
