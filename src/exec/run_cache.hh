/**
 * @file
 * Memoization of simulation runs.
 *
 * A simulation of this repository is a pure function of (workload,
 * processor configuration, measured instructions, warm-up
 * instructions, enhancement hook): the synthetic trace generator is
 * seeded from the workload name alone and the timing core is
 * deterministic. RunCache exploits that purity to make repeated
 * configurations free — the PB screen and the workflow's factorial
 * overlap, and the enhancement analysis re-runs the base experiment
 * verbatim.
 *
 * Hooked runs participate only when the caller supplies a stable hook
 * identity string (e.g. "precompute-128/gzip"); a hook factory with
 * no identity is assumed impure and bypasses the cache.
 *
 * What a run produces is one CellResult: the cycles and, for a
 * sampled run, its SampleSummary. Attempts return it, the cache and
 * the journal store it whole, so a replayed cell reports the same CI
 * as the fresh one.
 */

#ifndef RIGOR_EXEC_RUN_CACHE_HH
#define RIGOR_EXEC_RUN_CACHE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "sample/sampling.hh"
#include "sim/config.hh"

namespace rigor::exec
{

/** Full identity of one simulation run. */
struct RunKey
{
    /** Workload name — the trace generator's seed derives from it. */
    std::string workload;
    sim::ProcessorConfig config;
    std::uint64_t instructions = 0;
    std::uint64_t warmupInstructions = 0;
    /** Identity of the enhancement hook; empty = no hook. */
    std::string hookId;
    /** Sampling-schedule identity (SamplingOptions::id()); empty =
     *  full run. Keeps sampled and full responses from ever sharing
     *  a cache or journal entry. */
    std::string samplingId;

    bool operator==(const RunKey &) const = default;

    std::size_t hash() const;

    /**
     * Stable composed identity: "confighash|instructions|warmup|
     * workload|hookid" with the configuration hash in hex, plus a
     * "|samplingid" suffix for sampled runs. This is the journal's
     * on-disk record key and the manifest's per-cell `key` field, so
     * a replayed run can be traced back to the exact configuration
     * that produced it.
     */
    std::string toString() const;
};

/**
 * One cell's result, whole: what an attempt returns and what the run
 * cache and the journal store. A plain cycle count converts to it as
 * a full (unsampled) run, so scalar executors need no change.
 */
struct CellResult
{
    CellResult(double measured_cycles = 0.0) : cycles(measured_cycles) {}

    /** A sampled run: its extrapolated cycles and its summary. */
    static CellResult sampled(const sample::SampleSummary &summary)
    {
        CellResult result(summary.estimatedCycles);
        result.sample = summary;
        return result;
    }

    /** Response cycles (a sampled run's estimatedCycles). */
    double cycles = 0.0;
    /** The sampled run's summary; nullopt for a full run. */
    std::optional<sample::SampleSummary> sample;

    /** Sampling CI half-width in cycles; 0 for a full run. */
    double ciHalfWidthCycles() const
    {
        return sample ? sample->ciHalfWidth *
                            static_cast<double>(sample->streamInstructions)
                      : 0.0;
    }

    bool operator==(const CellResult &) const = default;
};

/** Thread-safe memo table from RunKey to CellResult. */
class RunCache
{
  public:
    /** Cached result, or nullopt on miss (the engine's
     *  ProgressReporter counts the hits). */
    std::optional<CellResult> lookup(const RunKey &key) const;

    /** Record one run's result (first writer wins). */
    void store(const RunKey &key, CellResult result);

    std::size_t size() const;

  private:
    struct KeyHash
    {
        std::size_t operator()(const RunKey &key) const
        {
            return key.hash();
        }
    };

    mutable std::mutex _mutex;
    std::unordered_map<RunKey, CellResult, KeyHash> _entries;
};

} // namespace rigor::exec

#endif // RIGOR_EXEC_RUN_CACHE_HH
