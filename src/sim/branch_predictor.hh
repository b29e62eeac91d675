/**
 * @file
 * Branch direction predictors.
 *
 * Table 6 varies the predictor between a 2-level adaptive scheme (the
 * low value) and perfect prediction (the high value), and separately
 * varies whether the global history is updated speculatively at decode
 * or conservatively at commit. A bimodal predictor is included as an
 * extra design point for ablation studies.
 */

#ifndef RIGOR_SIM_BRANCH_PREDICTOR_HH
#define RIGOR_SIM_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.hh"

namespace rigor::sim
{

/** Outcome counters for a direction predictor. */
struct BranchPredictorStats
{
    std::uint64_t predictions = 0;
    std::uint64_t mispredictions = 0;

    double accuracy() const
    {
        return predictions == 0
                   ? 1.0
                   : 1.0 - static_cast<double>(mispredictions) /
                               static_cast<double>(predictions);
    }
};

/**
 * Direction predictor interface.
 *
 * The core drives it as: predict() at fetch; then either
 * updateHistory() immediately (decode-time speculative update) or at
 * commit (commit-time update); updateCounters() always at commit.
 */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predict the direction of the branch at @p pc. */
    virtual bool predict(std::uint64_t pc) = 0;

    /**
     * Fold an outcome into the (global) history. Call timing is the
     * core's responsibility — this is what the Speculative Branch
     * Update parameter controls.
     */
    virtual void updateHistory(bool taken) = 0;

    /** Train the pattern tables with the resolved outcome. */
    virtual void updateCounters(std::uint64_t pc, bool taken) = 0;

    /** Record a resolved prediction in the statistics. */
    void recordOutcome(bool correct);

    const BranchPredictorStats &stats() const { return _stats; }

  private:
    BranchPredictorStats _stats;
};

/**
 * Two-level adaptive predictor (gshare variant): a global history
 * register XOR-hashed with the PC indexes a table of 2-bit saturating
 * counters.
 */
class TwoLevelPredictor : public BranchPredictor
{
  public:
    /**
     * @param table_entries pattern-table size (power of two)
     * @param history_bits global history length
     */
    explicit TwoLevelPredictor(std::uint32_t table_entries = 4096,
                               std::uint32_t history_bits = 8);

    bool predict(std::uint64_t pc) override;
    void updateHistory(bool taken) override;
    void updateCounters(std::uint64_t pc, bool taken) override;

  private:
    std::vector<std::uint8_t> _counters;
    std::uint32_t _historyBits;
    std::uint32_t _history;
    std::uint32_t _indexMask;

    std::uint32_t index(std::uint64_t pc, std::uint32_t history) const;
};

/** Bimodal predictor: 2-bit counters indexed by PC only. */
class BimodalPredictor : public BranchPredictor
{
  public:
    explicit BimodalPredictor(std::uint32_t table_entries = 4096);

    bool predict(std::uint64_t pc) override;
    void updateHistory(bool taken) override;
    void updateCounters(std::uint64_t pc, bool taken) override;

  private:
    std::vector<std::uint8_t> _counters;
    std::uint32_t _indexMask;
};

/**
 * Local two-level predictor (PAg): a table of per-branch history
 * registers indexes a shared table of 2-bit counters — SimpleScalar's
 * "2lev" with local history.
 */
class LocalTwoLevelPredictor : public BranchPredictor
{
  public:
    /**
     * @param history_entries per-branch history table size (power of
     *        two)
     * @param history_bits local history length
     * @param table_entries pattern table size (power of two)
     */
    explicit LocalTwoLevelPredictor(std::uint32_t history_entries = 1024,
                                    std::uint32_t history_bits = 10,
                                    std::uint32_t table_entries = 1024);

    bool predict(std::uint64_t pc) override;
    void updateHistory(bool taken) override;
    void updateCounters(std::uint64_t pc, bool taken) override;

  private:
    std::vector<std::uint16_t> _histories;
    std::vector<std::uint8_t> _counters;
    std::uint32_t _historyBits;
    std::uint32_t _historyMask;
    std::uint32_t _tableMask;
    std::uint64_t _lastPc = 0;

    std::uint32_t historyIndex(std::uint64_t pc) const;
};

/**
 * Tournament (combining) predictor: a chooser of 2-bit counters picks
 * between a global (gshare) and a local component per branch — the
 * Alpha 21264 scheme, SimpleScalar's "comb".
 */
class TournamentPredictor : public BranchPredictor
{
  public:
    TournamentPredictor();

    bool predict(std::uint64_t pc) override;
    void updateHistory(bool taken) override;
    void updateCounters(std::uint64_t pc, bool taken) override;

  private:
    TwoLevelPredictor _global;
    LocalTwoLevelPredictor _local;
    std::vector<std::uint8_t> _chooser;
    std::uint32_t _chooserMask;
};

/**
 * Perfect direction prediction: the core supplies the actual outcome
 * through setOracleOutcome() before calling predict().
 */
class PerfectPredictor : public BranchPredictor
{
  public:
    void setOracleOutcome(bool taken) { _next = taken; }

    bool predict(std::uint64_t pc) override;
    void updateHistory(bool taken) override;
    void updateCounters(std::uint64_t pc, bool taken) override;

  private:
    bool _next = false;
};

/** Factory keyed by the Table 6 parameter value. */
std::unique_ptr<BranchPredictor>
makeBranchPredictor(BranchPredictorKind kind);

} // namespace rigor::sim

#endif // RIGOR_SIM_BRANCH_PREDICTOR_HH
