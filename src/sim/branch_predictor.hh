/**
 * @file
 * The branch direction predictor.
 *
 * Table 6 varies the predictor between a 2-level adaptive scheme (the
 * low value) and perfect prediction (the high value), and separately
 * varies whether the global history is updated speculatively at decode
 * or conservatively at commit. Perfect prediction needs no structure:
 * the core skips the predictor, the BTB and the RAS for it, so this
 * file holds only the 2-level scheme.
 */

#ifndef RIGOR_SIM_BRANCH_PREDICTOR_HH
#define RIGOR_SIM_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace rigor::sim
{

/**
 * Two-level adaptive predictor (gshare variant): a global history
 * register XOR-hashed with the PC indexes a table of 2-bit saturating
 * counters.
 *
 * The core drives it as: predict() at fetch; then either
 * updateHistory() immediately (decode-time speculative update) or at
 * commit (commit-time update); updateCounters() always at commit.
 */
class TwoLevelPredictor
{
  public:
    /**
     * @param table_entries pattern-table size (power of two)
     * @param history_bits global history length
     */
    explicit TwoLevelPredictor(std::uint32_t table_entries = 4096,
                               std::uint32_t history_bits = 8);

    /** Predict the direction of the branch at @p pc. */
    bool predict(std::uint64_t pc) const;

    /**
     * Fold an outcome into the global history. Call timing is the
     * core's responsibility — this is what the Speculative Branch
     * Update parameter controls.
     */
    void updateHistory(bool taken);

    /** Train the pattern table with the resolved outcome. */
    void updateCounters(std::uint64_t pc, bool taken);

    /** Restore construction-time state: every counter weakly not
     *  taken, the history empty. */
    void reset();

  private:
    std::vector<std::uint8_t> _counters;
    std::uint32_t _historyBits;
    std::uint32_t _history = 0;
    std::uint32_t _indexMask;

    std::uint32_t index(std::uint64_t pc, std::uint32_t history) const;
};

} // namespace rigor::sim

#endif // RIGOR_SIM_BRANCH_PREDICTOR_HH
