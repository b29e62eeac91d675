/**
 * @file
 * Mandatory pre-flight analysis for the experiment drivers.
 *
 * Every leg of every experiment driver (a PB screen, each replicate
 * and adaptive round, both enhancement legs, the recommended
 * workflow's step-3 factorial) describes its work as an
 * ExperimentPlan (design, workloads, configurations, run lengths),
 * and the one leg runner, methodology::detail::runDesignBatch, calls
 * preflightOrThrow() on it before submitting a single simulation
 * job. A plan with errors raises PreflightError carrying every
 * diagnostic, so an 88-run x 13-workload screen is rejected in
 * microseconds instead of producing a plausible-looking but
 * statistically meaningless rank table hours later. The
 * skipPreflight escape hatch on the experiment options bypasses the
 * analysis for deliberately out-of-spec studies.
 */

#ifndef RIGOR_CHECK_PREFLIGHT_HH
#define RIGOR_CHECK_PREFLIGHT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "check/diagnostic.hh"
#include "doe/design_matrix.hh"
#include "sample/sampling.hh"
#include "sim/config.hh"
#include "trace/workload_profile.hh"

namespace rigor::check
{

/** Everything a simulation experiment is about to do. */
struct ExperimentPlan
{
    /** The design to simulate; null when the plan is design-free
     *  (e.g. a factorial over explicit configurations). */
    const doe::DesignMatrix *design = nullptr;
    /** Expected factor-column count of @c design; 0 skips. */
    std::size_t expectedFactors = 0;
    /** @c design includes its foldover half (checked exactly). */
    bool designIsFolded = false;
    /** The workload suite. */
    std::span<const trace::WorkloadProfile> workloads;
    /** Explicit configurations outside the design (factorial cells);
     *  pointers must outlive the call. */
    std::vector<const sim::ProcessorConfig *> configs;
    /** Audit the built-in Tables 6-8 parameter space (design rows
     *  are mapped through it, so design-driven plans set this). */
    bool auditParameterSpace = false;
    /** Measured instructions per run. */
    std::uint64_t instructionsPerRun = 0;
    /** Warm-up instructions per run. */
    std::uint64_t warmupInstructions = 0;
    /** Sampled-simulation schedule; analyzed only when enabled. */
    sample::SamplingOptions sampling;
};

/**
 * Run every applicable analyzer over the plan and return the
 * collected diagnostics (errors, warnings, and notes).
 */
DiagnosticSink analyzeExperimentPlan(const ExperimentPlan &plan);

/**
 * Analyze the plan and throw PreflightError naming @p who when any
 * analyzer reports an error. Warnings do not throw.
 */
void preflightOrThrow(const ExperimentPlan &plan, const char *who);

} // namespace rigor::check

#endif // RIGOR_CHECK_PREFLIGHT_HH
