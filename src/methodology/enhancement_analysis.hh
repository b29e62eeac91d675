/**
 * @file
 * Before/after enhancement analysis (section 4.3).
 *
 * Run the PB ranking on the base processor and again with an
 * enhancement enabled, then compare each parameter's sum of ranks.
 * A parameter whose sum rises lost significance under the enhancement
 * (the enhancement relieved that bottleneck); a falling sum means
 * increased pressure. The paper's case study finds that instruction
 * precomputation most relieves the number of integer ALUs.
 */

#ifndef RIGOR_METHODOLOGY_ENHANCEMENT_ANALYSIS_HH
#define RIGOR_METHODOLOGY_ENHANCEMENT_ANALYSIS_HH

#include <span>
#include <string>
#include <vector>

#include "doe/ranking.hh"
#include "methodology/pb_experiment.hh"

namespace rigor::methodology
{

/** One parameter's before/after movement. */
struct RankShift
{
    std::string name;
    unsigned long sumBefore = 0;
    unsigned long sumAfter = 0;

    /** Positive = lost significance (sum went up). */
    long delta() const
    {
        return static_cast<long>(sumAfter) -
               static_cast<long>(sumBefore);
    }
};

/** Full comparison of two rank tables. */
struct EnhancementComparison
{
    /** One entry per factor, sorted by descending |delta|. */
    std::vector<RankShift> shifts;

    /** Shift record for a named factor; throws if absent. */
    const RankShift &shift(const std::string &name) const;

    /**
     * Among the @p top_k most significant base factors, the one whose
     * sum of ranks increased the most (the paper's headline metric:
     * which bottleneck the enhancement relieved).
     */
    RankShift biggestReliefAmongTop(
        std::span<const doe::FactorRankSummary> base_summaries,
        std::size_t top_k) const;

    /** Fixed-width text rendering. */
    std::string toString(std::size_t max_rows = 0) const;
};

/**
 * Compare base and enhanced rank summaries. The factor sets must
 * match exactly; duplicate factor names in the enhanced table are
 * rejected (a silent first-wins match would corrupt the shifts).
 */
EnhancementComparison
compareRankTables(std::span<const doe::FactorRankSummary> base,
                  std::span<const doe::FactorRankSummary> enhanced);

/** Everything the paired base/enhanced experiment produced. */
struct EnhancementExperimentResult
{
    /** PB experiment without the enhancement. */
    PbExperimentResult base;
    /** PB experiment with the enhancement hook enabled. */
    PbExperimentResult enhanced;
    /** Sum-of-ranks shifts between the two (section 4.3). */
    EnhancementComparison comparison;
    /** Engine counters across both legs of this experiment only
     *  (cache hits show how much of the pair was shared). */
    exec::ProgressSnapshot execution;
    /**
     * Union of the benchmarks dropped by fault degradation in either
     * leg. A sum-of-ranks comparison is only meaningful over a
     * common benchmark population, so when the legs dropped
     * different sets, both are re-filtered to the intersection of
     * survivors before comparing (warning
     * campaign.paired-drop-mismatch in `validity`).
     */
    std::vector<std::string> droppedBenchmarks;
    /** Paired-campaign reconciliation diagnostics (per-leg trails
     *  live in base.validity / enhanced.validity). */
    check::DiagnosticSink validity;
};

/**
 * Run the section 4.3 before/after analysis: the PB experiment on the
 * base machine and again with @p hook_factory enabled, both through
 * one shared execution engine, then compare the rank tables.
 *
 * @param workloads the workload profiles to simulate
 * @param options experiment knobs; hookFactory/hookId are ignored
 *        (they describe the enhanced leg, passed separately). When
 *        options.campaign.engine is set, its cache makes any
 *        previously simulated leg (e.g. an earlier base run) free.
 * @param hook_factory builds the enhancement hook per run
 * @param hook_id stable cache identity of the enhancement (empty
 *        disables caching of the enhanced leg)
 */
EnhancementExperimentResult
runEnhancementExperiment(
    std::span<const trace::WorkloadProfile> workloads,
    const PbExperimentOptions &options,
    const HookFactory &hook_factory, const std::string &hook_id);

} // namespace rigor::methodology

#endif // RIGOR_METHODOLOGY_ENHANCEMENT_ANALYSIS_HH
