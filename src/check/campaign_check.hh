/**
 * @file
 * Statistical-validity degradation analysis for fault-tolerant
 * campaigns.
 *
 * When a campaign runs in collect-all-failures mode, a job whose
 * retries are exhausted is quarantined instead of cancelling the
 * batch. Quarantine is not statistically free: a missing
 * (benchmark, design row) response breaks that benchmark's
 * Plackett-Burman column contrasts, and in a foldover design it also
 * orphans the row's sign-flipped mirror, so main effects are no
 * longer separable from two-factor interactions for that benchmark.
 *
 * This analyzer turns a list of quarantined cells into an explicit,
 * rule-id'd verdict through the same DiagnosticSink vocabulary as
 * the experiment pre-flight:
 *
 *  - DegradationMode::DropBenchmark: every affected benchmark is
 *    dropped whole (warning campaign.benchmark-dropped) so the
 *    surviving rank table stays internally consistent — Table 9 sums
 *    then cover fewer benchmarks and must be labeled as such. If no
 *    benchmark survives, that is an error
 *    (campaign.no-complete-benchmarks).
 *
 *  - DegradationMode::Abort: any incomplete benchmark is an error
 *    (campaign.benchmark-incomplete); the campaign refuses to emit a
 *    partially-supported rank table.
 *
 * Either way the outcome is loud: a campaign never publishes a rank
 * table that silently counts fewer runs than it claims.
 */

#ifndef RIGOR_CHECK_CAMPAIGN_CHECK_HH
#define RIGOR_CHECK_CAMPAIGN_CHECK_HH

#include <cstddef>
#include <string>
#include <vector>

#include "check/diagnostic.hh"

namespace rigor::check
{

/** What to do when quarantined cells make a benchmark incomplete. */
enum class DegradationMode
{
    /** Refuse to degrade: any incomplete benchmark is an error. */
    Abort,
    /** Drop affected benchmarks whole and label the reduced table. */
    DropBenchmark,
};

/** Display name ("abort" / "drop-benchmark"). */
std::string toString(DegradationMode mode);

/**
 * One terminally-failed response cell. For a PB/foldover campaign
 * @c row is the design-row index; for a factorial campaign it is the
 * factorial cell index.
 */
struct QuarantinedCell
{
    /** Benchmark (PB screen) or workload (factorial) name. */
    std::string benchmark;
    /** Design-row / factorial-cell index (0-based). */
    std::size_t row = 0;
    /** Attempts spent before quarantine. */
    unsigned attempts = 1;
    /** Terminal failure kind ("transient"/"permanent"/"timeout"). */
    std::string kind;
    /** The terminal failure message. */
    std::string message;
};

/** Verdict of a degradation analysis. */
struct CampaignAssessment
{
    /** Full diagnostic trail (quarantines, drops, errors). */
    DiagnosticSink sink;
    /** Benchmarks to remove from the aggregation (DropBenchmark). */
    std::vector<std::string> dropBenchmarks;

    /** True when the campaign may proceed (possibly degraded). */
    bool passed() const { return sink.passed(); }
};

/**
 * Assess a Plackett-Burman (optionally folded) campaign.
 *
 * @param benchmarks every benchmark the campaign simulated.
 * @param designRows rows in the (possibly folded) design.
 * @param folded whether rows r and r + designRows/2 form foldover
 *        pairs (enables the pair-broken diagnostic).
 * @param quarantined the terminally-failed cells.
 */
CampaignAssessment assessCampaignValidity(
    const std::vector<std::string> &benchmarks,
    std::size_t designRows, bool folded,
    const std::vector<QuarantinedCell> &quarantined,
    DegradationMode mode);

/**
 * Assess a full-factorial campaign whose responses are averaged per
 * cell across workloads: a workload with any quarantined cell is
 * dropped from every cell's average (or the campaign aborts), so no
 * cell mixes a different workload population than its neighbors.
 */
CampaignAssessment assessFactorialValidity(
    const std::vector<std::string> &workloads, std::size_t cells,
    const std::vector<QuarantinedCell> &quarantined,
    DegradationMode mode);

/**
 * Thrown when a degradation analysis fails (or when DropBenchmark
 * leaves nothing to aggregate); carries the full diagnostic trail.
 */
class CampaignError : public std::runtime_error
{
  public:
    CampaignError(const std::string &who, DiagnosticSink sink);

    const DiagnosticSink &sink() const { return _sink; }
    const std::vector<Diagnostic> &diagnostics() const
    {
        return _sink.diagnostics();
    }

  private:
    DiagnosticSink _sink;
};

} // namespace rigor::check

#endif // RIGOR_CHECK_CAMPAIGN_CHECK_HH
