/**
 * @file
 * The Plackett-Burman simulation experiment driver (Table 9 / 12).
 *
 * Runs every row of the (foldover) PB design — 88 configurations for
 * the 43-factor space — against every workload, computes each
 * factor's effect on total execution cycles per workload, ranks the
 * factors per workload, and aggregates the ranks across workloads,
 * exactly the procedure of the paper's section 4.1.
 */

#ifndef RIGOR_METHODOLOGY_PB_EXPERIMENT_HH
#define RIGOR_METHODOLOGY_PB_EXPERIMENT_HH

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "check/campaign_check.hh"
#include "doe/design_matrix.hh"
#include "doe/ranking.hh"
#include "exec/campaign_options.hh"
#include "exec/engine.hh"
#include "sim/core.hh"
#include "trace/workload_profile.hh"

namespace rigor::methodology
{

/**
 * Creates an enhancement hook for one simulation run (called per run;
 * return nullptr for no enhancement). Must be thread-safe.
 */
using HookFactory = std::function<std::unique_ptr<sim::ExecutionHook>(
    const trace::WorkloadProfile &profile)>;

/** Knobs of one PB experiment. */
struct PbExperimentOptions
{
    /** Measured dynamic instructions per simulation run. */
    std::uint64_t instructionsPerRun = 200000;
    /**
     * Leading warm-up instructions per run (executed before the
     * measured window; excluded from the response). Zero disables.
     * At this repo's scaled-down run lengths, warm-up is what keeps
     * cold-start cache misses from swamping the steady-state effects
     * (the paper's billion-instruction runs amortized them away).
     */
    std::uint64_t warmupInstructions = 0;
    /** Optional enhancement (instruction precomputation etc.). */
    HookFactory hookFactory;
    /**
     * Stable cache identity of hookFactory's product (appended with
     * the workload name per run). Leave empty for an impure factory:
     * hooked runs are then never served from the run cache.
     */
    std::string hookId;
    /**
     * Campaign label written to the manifest's "campaign" record so
     * multi-experiment manifests (e.g. the paired enhancement legs)
     * stay distinguishable.
     */
    std::string experimentName = "pb_screen";
    /**
     * Shared execution knobs (threads, foldover, skipPreflight,
     * fault policy, journal, shared engine, degradation mode) and
     * the observability sinks — the same struct every experiment
     * driver embeds. See exec::CampaignOptions.
     */
    exec::CampaignOptions campaign;
};

/** Everything the experiment produced. */
struct PbExperimentResult
{
    /** The design actually simulated (foldover included if enabled). */
    doe::DesignMatrix design{1, 1};
    /** Workload names, row order of all per-benchmark vectors. */
    std::vector<std::string> benchmarks;
    /** Execution cycles: responses[bench][design row]. */
    std::vector<std::vector<double>> responses;
    /** Sampling CI half-widths in cycles, aligned with responses; 0
     *  for full runs (see exec::BatchResult::ciHalfWidths). */
    std::vector<std::vector<double>> ciHalfWidths;
    /** PB effects: effects[bench][factor], 43 factors. */
    std::vector<std::vector<double>> effects;
    /** Per-benchmark significance ranks: ranks[bench][factor]. */
    std::vector<std::vector<unsigned>> ranks;
    /** Cross-benchmark aggregation, sorted ascending by rank sum. */
    std::vector<doe::FactorRankSummary> summaries;
    /**
     * Benchmarks removed whole by fault degradation
     * (DegradationMode::DropBenchmark); empty on a clean campaign.
     * Dropped benchmarks appear in none of the vectors above, so the
     * rank sums cover exactly `benchmarks`.
     */
    std::vector<std::string> droppedBenchmarks;
    /**
     * Degradation diagnostic trail (campaign.* rules): quarantined
     * cells, broken foldover pairs, dropped benchmarks. Empty when
     * every simulation completed.
     */
    check::DiagnosticSink validity;

    /**
     * Rank vectors in benchmark-major layout (one 43-element vector
     * per benchmark) for the classification step.
     */
    std::vector<std::vector<double>> rankVectors() const;

    /**
     * Sampling uncertainty of benchmark @p bench's effects, in
     * cycles. An effect is sum(sign_r * response_r); independent
     * per-run errors h_r propagate as sqrt(sum h_r^2) whatever the
     * signs. Summed in row order.
     */
    double effectHalfWidth(std::size_t bench) const;

    /**
     * Remove benchmarks by name and recompute the cross-benchmark
     * aggregation (summaries) over the survivors. Removed names move
     * to droppedBenchmarks. Unknown names are ignored. Throws
     * std::invalid_argument when nothing would survive.
     */
    void dropBenchmarks(std::span<const std::string> names);
};

/**
 * Run the full experiment.
 *
 * @param workloads the workload profiles to simulate
 * @param options experiment knobs
 */
PbExperimentResult
runPbExperiment(std::span<const trace::WorkloadProfile> workloads,
                const PbExperimentOptions &options);

namespace detail
{

class CampaignScope;

/**
 * runPbExperiment's body for drivers that hold a campaign scope:
 * runs on the engine and executor @p scope already attached (never
 * choosing its own). options.campaign.engine is ignored.
 */
PbExperimentResult
runPbScreen(std::span<const trace::WorkloadProfile> workloads,
            const PbExperimentOptions &options, CampaignScope &scope);

} // namespace detail

/**
 * Simulate one workload under one processor configuration and return
 * the execution cycles (the PB response variable).
 *
 * Always generates the stream afresh, with no per-worker replay (see
 * exec::SimulationEngine::simulateJob): it is the independent
 * reference the engine's replayed responses are checked against.
 */
double simulateOnce(const trace::WorkloadProfile &profile,
                    const sim::ProcessorConfig &config,
                    std::uint64_t instructions,
                    sim::ExecutionHook *hook = nullptr,
                    std::uint64_t warmup_instructions = 0);

} // namespace rigor::methodology

#endif // RIGOR_METHODOLOGY_PB_EXPERIMENT_HH
