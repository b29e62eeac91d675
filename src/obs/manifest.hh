/**
 * @file
 * Structured JSONL campaign manifest.
 *
 * A rank table alone says nothing about how it was produced; the
 * manifest is the campaign's machine-readable provenance record. One
 * JSON object per line, in campaign order:
 *
 *  - {"type":"campaign", ...}  design identity: experiment name,
 *    factor/row counts, foldover, design digest, workloads, run
 *    lengths — everything needed to tell two campaigns apart.
 *  - {"type":"cell", ...}      one line per (benchmark, design row)
 *    run: the run-cache key (config hash first), where the response
 *    came from (simulated | cache | journal), attempts, wall time,
 *    and the response itself.
 *  - {"type":"phase", ...}     coarse per-phase wall time.
 *  - {"type":"summary", ...}   terminal accounting: run totals,
 *    cache/journal hits, retries, failures, dropped cells and
 *    benchmarks, and the final rank-table digest.
 *  - {"type":"stability", ...} rank-stability provenance of a
 *    replicated campaign: replicate count, bootstrap schedule,
 *    top-factor rank CIs, the worst top-K flip probability, and a
 *    digest of the full stability report.
 *
 * Appends are mutex-serialized (cells arrive from every worker); each
 * record is rendered outside any lock the simulation fast path takes.
 */

#ifndef RIGOR_OBS_MANIFEST_HH
#define RIGOR_OBS_MANIFEST_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "exec/progress.hh"
#include "exec/run_cache.hh"
#include "sample/sampling.hh"

namespace rigor::obs
{

/** Design identity of one campaign (the "campaign" record). */
struct CampaignInfo
{
    /** e.g. "pb_screen", "workflow_factorial", "enhancement_base". */
    std::string experiment;
    std::size_t factors = 0;
    std::size_t rows = 0;
    bool foldover = false;
    /** FNV-1a digest of the design matrix contents (hex). */
    std::string designDigest;
    std::vector<std::string> workloads;
    std::uint64_t instructionsPerRun = 0;
    std::uint64_t warmupInstructions = 0;
    /** Sampled-simulation schedule; rendered only when enabled. */
    sample::SamplingOptions sampling;
};

/** One completed or quarantined (benchmark, row) response cell. */
struct CellRecord
{
    std::string benchmark;
    std::size_t row = 0;
    /** Run-cache key: config hash | instructions | warmup | workload
     *  | hook id. Empty for uncacheable runs. */
    std::string runKey;
    /** "simulated" | "cache" | "journal" | "failed". */
    std::string source;
    unsigned attempts = 0;
    double wallSeconds = 0.0;
    /** The cell's result: cycles (NaN renders as null for a
     *  quarantined cell), and the sample's units, relative error and
     *  CI half-width when it has one. */
    exec::CellResult result;
};

/** Terminal accounting of one campaign (the "summary" record). */
struct SummaryRecord
{
    /** The engine's progress delta across the campaign, except that
     *  wallSeconds is the campaign's whole wall clock (pre-flight and
     *  analysis included), not only its time inside batches. */
    exec::ProgressSnapshot execution;
    std::vector<std::string> droppedBenchmarks;
    /** FNV-1a digest of the final rank table (hex); empty when the
     *  campaign produced no rank table (e.g. the factorial phase). */
    std::string rankTableDigest;
};

/** One top-K factor's rank interval in the stability record. */
struct StabilityFactor
{
    std::string name;
    /** Reported aggregate rank (1 = most significant). */
    unsigned rank = 0;
    double rankLower = 0.0;
    double rankUpper = 0.0;
};

/** Rank-stability provenance of one replicated campaign. */
struct StabilityRecord
{
    unsigned replicates = 0;
    std::uint64_t bootstrapIterations = 0;
    std::uint64_t bootstrapSeed = 0;
    double confidence = 0.0;
    bool sampled = false;
    bool samplingCiComposed = false;
    /** Top-K factors in reported rank order. */
    std::vector<StabilityFactor> factors;
    /** Worst pairwise flip probability over the reported top-K. */
    double maxFlipProbability = 0.0;
    /** FNV-1a digest (hex) of the full --stability-out JSON. */
    std::string reportDigest;
};

/** Thread-safe JSONL accumulator. */
class CampaignManifest
{
  public:
    void beginCampaign(const CampaignInfo &info);
    void addCell(const CellRecord &cell);
    void addPhase(const std::string &name, double wall_seconds);
    void addSummary(const SummaryRecord &summary);
    void addStability(const StabilityRecord &stability);

    std::size_t recordCount() const;

    /** All records, one JSON object per line. */
    std::string toJsonl() const;

    /** Write toJsonl() to @p path; throws std::runtime_error on I/O
     *  failure. */
    void writeTo(const std::string &path) const;

  private:
    void append(std::string line);

    mutable std::mutex _mutex;
    std::vector<std::string> _lines;
};

} // namespace rigor::obs

#endif // RIGOR_OBS_MANIFEST_HH
