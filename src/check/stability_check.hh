/**
 * @file
 * Rank-stability analysis rules (campaign.* / stats.*).
 *
 * The rank-stability subsystem (methodology/rank_stability.hh) runs a
 * replicated PB campaign and bootstraps confidence intervals over the
 * per-parameter rank positions. This analyzer turns those intervals
 * into pre-flight enforcement:
 *
 *  - campaign.under-replicated (error): a replicated campaign was
 *    requested with fewer workload-generation replicates than
 *    kMinReplicates — conclusions from one or two realizations
 *    cannot separate workload noise from parameter effects.
 *  - stats.rank-ci-overlap (warning): two adjacent top-K factors have
 *    overlapping rank CIs, so their reported order is unresolved.
 *  - stats.rank-flip-inside-noise (error): a reported ordering of two
 *    top-K factors flips in more than the threshold fraction of
 *    bootstrap iterations — the published inversion is inside noise.
 *  - stats.ci-compose-missing (error): the campaign used sampled
 *    simulation (PR 6) but the per-run CPI sampling CIs were not
 *    root-sum-square-composed with the replication CIs, so the
 *    reported uncertainty understates the truth.
 *
 * checkReplicationPlan() runs inside the mandatory pre-flight before
 * any cycle is simulated; checkRankStability() runs on the finished
 * bootstrap findings; lintStabilityReport() re-runs the same analysis
 * standalone on a --stability-out JSON report from disk, so
 * tools/rigor_lint can audit a stability report after the fact.
 */

#ifndef RIGOR_CHECK_STABILITY_CHECK_HH
#define RIGOR_CHECK_STABILITY_CHECK_HH

#include <string>
#include <string_view>
#include <vector>

#include "check/diagnostic.hh"
#include "stats/bootstrap.hh"

namespace rigor::check
{

/** The campaign.under-replicated floor: the fewest workload
 *  replicates a replicated campaign may request. */
inline constexpr unsigned kMinReplicates = 3;

/** Thresholds of the rank-stability rules. */
struct StabilityCheckOptions
{
    /** How many leading (most influential) factors the rules cover. */
    unsigned topFactors = 10;
    /**
     * stats.rank-flip-inside-noise fires when the bootstrap
     * probability of two top-K factors swapping order exceeds this.
     * 0.5 would mean a coin flip; the default leaves a margin.
     */
    double flipThreshold = 0.4;
};

/**
 * Bootstrap findings in the neutral shape this analyzer consumes.
 * The methodology layer converts its RankStabilityReport into this;
 * lintStabilityReport() parses a report file into it. Factors are in
 * reported (point-estimate) rank order, most influential first, and
 * all vectors/matrices are indexed in that order.
 */
struct RankStabilityFindings
{
    /** Factor names, best reported rank first. */
    std::vector<std::string> factorNames;
    /** Bootstrap CI bounds on each factor's aggregate rank position. */
    std::vector<double> rankLower;
    std::vector<double> rankUpper;
    /**
     * flipProbability[i][j] (i < j): fraction of bootstrap iterations
     * in which factor i ranked *worse* than factor j — i.e. the
     * reported order inverted. Square, same order as factorNames;
     * may cover only the leading top-K factors.
     */
    std::vector<std::vector<double>> flipProbability;
    /** Workload-generation replicates behind the intervals. */
    unsigned replicates = 0;
    /** True when the campaign used sampled simulation. */
    bool sampled = false;
    /** True when sampling CIs were RSS-composed with replication. */
    bool samplingCiComposed = true;
};

/**
 * Pre-flight leg: reject an under-replicated campaign
 * (campaign.under-replicated, fewer than kMinReplicates replicates)
 * before any simulation runs. A disabled replication plan
 * (replicates == 0) is exempt — single-realization campaigns are the
 * documented historical behavior.
 */
void checkReplicationPlan(const stats::ReplicationOptions &replication,
                          DiagnosticSink &sink);

/**
 * Post-bootstrap leg: audit the finished findings for unresolved
 * rank orderings (stats.rank-ci-overlap), inversions inside noise
 * (stats.rank-flip-inside-noise), and missing CI composition
 * (stats.ci-compose-missing).
 */
void checkRankStability(const RankStabilityFindings &findings,
                        const StabilityCheckOptions &options,
                        DiagnosticSink &sink);

/**
 * Standalone CLI leg: parse @p text (the JSON a campaign writes via
 * --stability-out) and run checkRankStability() plus the replicate
 * floor on it. Malformed JSON or a structurally wrong report yields
 * stats.report-syntax. @p path labels diagnostics.
 */
void lintStabilityReport(std::string_view text, const std::string &path,
                         const StabilityCheckOptions &options,
                         DiagnosticSink &sink);

} // namespace rigor::check

#endif // RIGOR_CHECK_STABILITY_CHECK_HH
