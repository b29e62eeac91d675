/**
 * @file
 * Thread-safe progress accounting for batched simulation runs.
 *
 * Every simulation driver in this repository ultimately pushes jobs
 * through exec::SimulationEngine, and the engine counts each job
 * outcome exactly once, into its ProgressReporter, with relaxed
 * atomics and no locking on the simulation fast path. A
 * ProgressSnapshot is the one record of those counts: a campaign's
 * share of a shared engine is after.since(before), the manifest's
 * summary record renders it, and the engine publishes each batch's
 * delta to an attached metrics registry after the batch joins.
 */

#ifndef RIGOR_EXEC_PROGRESS_HH
#define RIGOR_EXEC_PROGRESS_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace rigor::exec
{

/** One consistent-enough view of the counters (snapshot semantics). */
struct ProgressSnapshot
{
    /** Jobs submitted across all batches. */
    std::uint64_t runsTotal = 0;
    /** Jobs finished (simulated or served from cache). */
    std::uint64_t runsCompleted = 0;
    /** Jobs satisfied by the RunCache without simulating. */
    std::uint64_t cacheHits = 0;
    /** Jobs replayed from a crash-safe ResultJournal (resume). */
    std::uint64_t journalHits = 0;
    /** Extra attempts made after transient/timeout failures. */
    std::uint64_t retries = 0;
    /** Jobs that ended in a terminal failure (quarantined or
     *  batch-cancelling, depending on the FaultPolicy). */
    std::uint64_t failedJobs = 0;
    /** Dynamic instructions actually simulated (warm-up included;
     *  cache hits contribute nothing). */
    std::uint64_t simulatedInstructions = 0;
    /** Wall-clock seconds spent inside engine batches. */
    double wallSeconds = 0.0;

    /** Counter-wise difference from an earlier snapshot of the same
     *  reporter: the work done between the two. */
    ProgressSnapshot since(const ProgressSnapshot &before) const;

    /** One-line rendering for bench/example status output. */
    std::string toString() const;
};

/** Lock-free counter set shared by the engine's workers. */
class ProgressReporter
{
  public:
    void addSubmitted(std::uint64_t jobs)
    {
        _runsTotal.fetch_add(jobs, std::memory_order_relaxed);
    }

    void addCompleted()
    {
        _runsCompleted.fetch_add(1, std::memory_order_relaxed);
    }

    void addCacheHit()
    {
        _cacheHits.fetch_add(1, std::memory_order_relaxed);
    }

    void addJournalHit()
    {
        _journalHits.fetch_add(1, std::memory_order_relaxed);
    }

    void addRetry()
    {
        _retries.fetch_add(1, std::memory_order_relaxed);
    }

    void addFailed()
    {
        _failedJobs.fetch_add(1, std::memory_order_relaxed);
    }

    void addSimulatedInstructions(std::uint64_t instructions)
    {
        _simulatedInstructions.fetch_add(instructions,
                                         std::memory_order_relaxed);
    }

    void addWallNanos(std::uint64_t nanos)
    {
        _wallNanos.fetch_add(nanos, std::memory_order_relaxed);
    }

    ProgressSnapshot snapshot() const;

  private:
    std::atomic<std::uint64_t> _runsTotal{0};
    std::atomic<std::uint64_t> _runsCompleted{0};
    std::atomic<std::uint64_t> _cacheHits{0};
    std::atomic<std::uint64_t> _journalHits{0};
    std::atomic<std::uint64_t> _retries{0};
    std::atomic<std::uint64_t> _failedJobs{0};
    std::atomic<std::uint64_t> _simulatedInstructions{0};
    std::atomic<std::uint64_t> _wallNanos{0};
};

} // namespace rigor::exec

#endif // RIGOR_EXEC_PROGRESS_HH
