/**
 * @file
 * Adaptive sampled PB screening: refine only the ambiguous cells.
 *
 * A sampled PB screen trades detailed-simulation work for a per-run
 * confidence interval on every response. That interval propagates
 * into each factor effect (the effect is a signed sum of responses,
 * so its uncertainty is the root-sum-square of the per-run CI
 * half-widths). When a top-ranked factor's |effect| falls inside its
 * own propagated error band for some benchmark, the sampled ranking
 * is statistically ambiguous there — the cheap screen cannot tell
 * that factor's significance apart from noise.
 *
 * runAdaptivePbExperiment runs the sampled screen once, finds the
 * (benchmark, top-10 factor) pairs whose effect is ambiguous given the
 * per-run CIs, and re-runs *only the implicated benchmarks* with a
 * lengthened sampling schedule (halved fast-forward interval, i.e.
 * more measured units per stream), splicing the refined responses
 * back and re-aggregating the rank table — repeating until the top-10
 * ranking is unambiguous or the round budget is exhausted. Untroubled
 * benchmarks never pay for the refinement.
 */

#ifndef RIGOR_METHODOLOGY_ADAPTIVE_SAMPLING_HH
#define RIGOR_METHODOLOGY_ADAPTIVE_SAMPLING_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "methodology/pb_experiment.hh"
#include "sample/sampling.hh"

namespace rigor::methodology
{

/** Knobs of the adaptive refinement loop. */
struct AdaptiveSamplingOptions
{
    /**
     * The underlying experiment; campaign.sampling.enabled must be
     * set (an adaptive loop over full runs has nothing to refine).
     */
    PbExperimentOptions base;
    /** Total rounds including the initial screen (>= 1). */
    unsigned maxRounds = 3;
    /**
     * Effect-ambiguity threshold multiplier: a factor is ambiguous
     * for a benchmark when |effect| <= ambiguityFactor * rss, where
     * rss is the root-sum-square of the benchmark's per-run CI
     * half-widths in cycles. 1.0 means "inside one propagated CI".
     */
    double ambiguityFactor = 1.0;
};

/** What one round of the loop did. */
struct AdaptiveRound
{
    /** Sampling schedule this round simulated with. */
    sample::SamplingOptions sampling;
    /** Benchmarks simulated this round (all of them in round 0). */
    std::vector<std::string> simulatedBenchmarks;
    /** Ambiguous (benchmark, top-10 factor) pairs remaining *after*
     *  this round's responses were folded in. */
    std::size_t ambiguousPairs = 0;
};

/** Final spliced result plus the refinement audit trail. */
struct AdaptiveSamplingResult
{
    /** The experiment result after the last refinement round. */
    PbExperimentResult result;
    /** One entry per executed round, in order. */
    std::vector<AdaptiveRound> rounds;
    /** True when the loop ended with zero ambiguous pairs. */
    bool converged = false;
};

/**
 * Run the sampled screen and refine ambiguous cells as described
 * above. Throws std::invalid_argument when sampling is disabled or
 * maxRounds is zero.
 */
AdaptiveSamplingResult runAdaptivePbExperiment(
    std::span<const trace::WorkloadProfile> workloads,
    const AdaptiveSamplingOptions &options);

} // namespace rigor::methodology

#endif // RIGOR_METHODOLOGY_ADAPTIVE_SAMPLING_HH
