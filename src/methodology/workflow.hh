/**
 * @file
 * The paper's recommended end-to-end workflow (section 4.1):
 *
 *  1. Determine the critical processor parameters with a Plackett-
 *     Burman design (choose low/high values; run and analyze).
 *  2. Choose reasonable values for the non-critical parameters.
 *  3. Perform a sensitivity analysis over the critical parameters
 *     with the ANOVA technique (full factorial).
 *  4. Choose final values for the critical parameters from the
 *     sensitivity results.
 *
 * This module packages those four steps behind one call: it screens
 * with the 88-run PB experiment, picks the critical set at the
 * largest sum-of-ranks gap, runs a full 2^k factorial over the
 * critical parameters around an otherwise typical machine, and
 * reports per-parameter directions plus the interaction structure.
 */

#ifndef RIGOR_METHODOLOGY_WORKFLOW_HH
#define RIGOR_METHODOLOGY_WORKFLOW_HH

#include <span>
#include <string>
#include <vector>

#include "methodology/parameter_space.hh"
#include "methodology/pb_experiment.hh"
#include "stats/anova.hh"

namespace rigor::methodology
{

/** Knobs of the full workflow. */
struct WorkflowOptions
{
    /**
     * Run lengths (100k measured + 100k warm-up instructions per run
     * by default) and the shared execution knobs and sinks, applied
     * to both simulation phases — the PB screen and the step-3
     * factorial share one execution engine.
     */
    PbExperimentOptions base{.instructionsPerRun = 100000,
                             .warmupInstructions = 100000,
                             .campaign = {}};
    /**
     * Cap on the critical-parameter count carried into the ANOVA
     * step; the 2^k factorial cost bounds this. The actual set may
     * be smaller when the sum-of-ranks gap comes earlier.
     */
    std::size_t maxCriticalParameters = 4;
};

/** Direction recommendation for one critical parameter. */
struct ParameterRecommendation
{
    Factor factor = Factor::DummyFactor1;
    std::string name;
    /** Mean cycles saved moving low -> high (negative = high hurts). */
    double cyclesSavedHighVsLow = 0.0;
    /** Share of the factorial's variation this main effect explains. */
    double variationExplained = 0.0;
};

/** Everything the workflow produced. */
struct WorkflowResult
{
    /** Step 1: the screening experiment. */
    PbExperimentResult screening;
    /** Step 1b: the critical factors, most significant first. */
    std::vector<Factor> criticalFactors;
    /** Step 3: full factorial ANOVA over the critical factors
     *  (response = mean cycles across the workloads). */
    stats::AnovaResult sensitivity;
    /** Step 4: per-parameter directions from the factorial. */
    std::vector<ParameterRecommendation> recommendations;
    /** Largest interaction among critical parameters (label and
     *  share of variation) — the information one-at-a-time designs
     *  cannot produce. */
    std::string largestInteraction;
    double largestInteractionShare = 0.0;
    /** Execution-engine counters over both simulation phases of this
     *  workflow only (runs, cache hits, simulated instructions, wall
     *  time inside batches). */
    exec::ProgressSnapshot execution;
    /** Workloads dropped from the step-3 factorial averaging by
     *  fault degradation (the screen's drops are in
     *  screening.droppedBenchmarks). */
    std::vector<std::string> factorialDroppedWorkloads;
    /** Step-3 degradation diagnostic trail (campaign.* rules). */
    check::DiagnosticSink factorialValidity;

    /** Human-readable multi-section report. */
    std::string toString() const;
};

/**
 * Run the four-step workflow over the given workloads.
 */
WorkflowResult
runRecommendedWorkflow(std::span<const trace::WorkloadProfile> workloads,
                       const WorkflowOptions &options);

/** Factor enum value for a factor name; throws if unknown. */
Factor factorByName(const std::string &name);

} // namespace rigor::methodology

#endif // RIGOR_METHODOLOGY_WORKFLOW_HH
