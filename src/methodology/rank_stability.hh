/**
 * @file
 * Rank-stability inference over replicated PB campaigns.
 *
 * The paper reports its parameter ranks (Table 9) and benchmark
 * similarity matrix (Table 10) as point estimates from a single
 * synthetic-workload realization. This subsystem quantifies how
 * stable those artifacts are: it re-runs the whole screen under R
 * independently seeded workload realizations (the trace generators
 * are seeded from the workload *name*, so replicate r simulates a
 * renamed copy of each profile — a fresh realization that also gets
 * its own RunKey, keeping replicates out of the base runs' cache and
 * journal entries), then bootstraps the replicate-to-replicate spread
 * into:
 *
 *  - a confidence interval on every factor's aggregate rank position
 *    and sum-of-ranks,
 *  - a rank-flip probability matrix over the reported top-K order,
 *  - confidence intervals on every Table-10 distance entry, and
 *  - per-benchmark composition of the PR-6 sampling CIs with the
 *    replication spread (root-sum-square), so sampled campaigns
 *    report one honest uncertainty instead of two partial ones.
 *
 * The finished report feeds check::checkRankStability — a campaign
 * whose headline order is inside noise fails with
 * stats.rank-flip-inside-noise instead of shipping.
 *
 * Everything is deterministic: the bootstrap is seeded
 * (stats/bootstrap.hh) and replicate responses come back in job
 * order, so the report is bit-identical across engine thread counts.
 */

#ifndef RIGOR_METHODOLOGY_RANK_STABILITY_HH
#define RIGOR_METHODOLOGY_RANK_STABILITY_HH

#include <span>
#include <string>
#include <vector>

#include "check/stability_check.hh"
#include "cluster/distance_matrix.hh"
#include "methodology/pb_experiment.hh"
#include "stats/bootstrap.hh"

namespace rigor::methodology
{

/** Knobs of one replicated, stability-analyzed PB campaign. */
struct RankStabilityOptions
{
    /**
     * The underlying screen: run lengths, hooks, and the shared
     * campaign options.
     */
    PbExperimentOptions base;
    /**
     * Workload-generation replication: `replicates` is the replicate
     * count R (must be >= 1; the pre-flight rejects R below
     * check::kMinReplicates with campaign.under-replicated), and
     * `bootstrap` seeds and sizes the bootstrap.
     */
    stats::ReplicationOptions replication;
    /** Thresholds handed to check::checkRankStability. */
    check::StabilityCheckOptions check;
};

/** One factor's stability row, in reported (point) rank order. */
struct FactorStability
{
    std::string name;
    /** Reported aggregate rank (1 = most significant). */
    unsigned pointRank = 0;
    /** Bootstrap CI on the aggregate rank position. */
    stats::BootstrapInterval rank;
    /** Bootstrap CI on the cross-benchmark sum of ranks. */
    stats::BootstrapInterval sumOfRanks;
};

/** Per-benchmark composition of sampling and replication error. */
struct ComposedUncertainty
{
    std::string benchmark;
    /** Half-width of the BCa CI on the top factor's mean effect
     *  across replicates (cycles). */
    double replicationHalfWidth = 0.0;
    /** Sampling contribution: RSS of the per-run CPI CI half-widths
     *  through the effect estimate, averaged over replicates
     *  (cycles); zero for full (unsampled) runs. */
    double samplingHalfWidth = 0.0;
    /** Root-sum-square of the two. */
    double composedHalfWidth = 0.0;
};

/** Everything the bootstrap concluded about one replicated campaign. */
struct RankStabilityReport
{
    /** Workload-generation replicates behind the intervals. */
    unsigned replicates = 0;
    /** The bootstrap schedule that produced the intervals. */
    stats::BootstrapOptions bootstrap;
    /** Benchmarks covered (the survivor intersection). */
    std::vector<std::string> benchmarks;
    /** All factors, reported rank order (best first). */
    std::vector<FactorStability> factors;
    /**
     * flipProbability[i][j]: fraction of bootstrap iterations in
     * which factors i and j (point order, top-K only) appear in the
     * opposite order from the reported table. Symmetric, zero
     * diagonal.
     */
    std::vector<std::vector<double>> flipProbability;
    /** Point-estimate Table-10 distances over mean-effect ranks. */
    cluster::DistanceMatrix distance{1};
    /** Per-entry bootstrap CI bounds on `distance`. */
    cluster::DistanceMatrix distanceLower{1};
    cluster::DistanceMatrix distanceUpper{1};
    /** True when the campaign ran under sampled simulation. */
    bool sampled = false;
    /** True when sampling CIs were RSS-composed into `composed`. */
    bool samplingCiComposed = false;
    /** Per-benchmark uncertainty composition, parallel to
     *  `benchmarks`; populated only for sampled campaigns. */
    std::vector<ComposedUncertainty> composed;

    /** Convert to the neutral shape the check layer consumes. */
    check::RankStabilityFindings findings() const;

    /** Human-readable stability table. */
    std::string toString() const;

    /**
     * The --stability-out JSON document. The exact schema
     * check::lintStabilityReport parses; one object, two-space
     * indentation, deterministic member order.
     */
    std::string toJson() const;
};

/** A replicated campaign: the pooled screen plus its stability. */
struct ReplicatedPbResult
{
    /**
     * Pooled experiment over the survivor intersection: effects are
     * the per-factor means across replicates, ranks and summaries
     * are recomputed from those means, responses come from replicate
     * 0. `validity` holds every replicate's quarantine and
     * benchmark-dropped diagnostics (replicate r >= 1 names its
     * benchmarks "gzip#r<r>") and the stability diagnostics (stats.*
     * rules).
     */
    PbExperimentResult pooled;
    RankStabilityReport stability;
};

/**
 * Pure bootstrap core (no simulation): infer rank stability from
 * per-replicate effect tensors.
 *
 * @param effects_by_replicate [replicate][benchmark][factor] signed
 *        PB effects; every replicate must cover the same benchmarks
 *        in the same order
 * @param benchmarks benchmark names, inner order of the tensor
 * @param factor_names one name per factor column
 * @param bootstrap seed/iterations/confidence of the resampling
 * @param top_factors how many leading factors the flip matrix covers
 */
RankStabilityReport analyzeRankStability(
    const std::vector<std::vector<std::vector<double>>>
        &effects_by_replicate,
    std::span<const std::string> benchmarks,
    std::span<const std::string> factor_names,
    const stats::BootstrapOptions &bootstrap, unsigned top_factors);

/**
 * Run the replicated campaign end to end: R independently seeded
 * realizations of every workload through the shared engine, the
 * bootstrap, the stability checks, and (when a manifest is attached)
 * a "stability" provenance record.
 *
 * Throws check::PreflightError, before any replicate runs, when the
 * replication plan is under the configured floor (unless
 * base.campaign.skipPreflight is set), and
 * check::CampaignError when no benchmark completed in every
 * replicate (campaign.no-complete-benchmarks, under fault
 * degradation) or when the finished stability analysis contains
 * error-severity diagnostics (stats.rank-flip-inside-noise,
 * stats.ci-compose-missing) and skipPreflight is not set.
 */
ReplicatedPbResult runReplicatedPbExperiment(
    std::span<const trace::WorkloadProfile> workloads,
    const RankStabilityOptions &options);

} // namespace rigor::methodology

#endif // RIGOR_METHODOLOGY_RANK_STABILITY_HH
