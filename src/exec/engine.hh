/**
 * @file
 * The shared simulation execution engine.
 *
 * Every multi-run experiment in this repository — the Plackett-Burman
 * screen, the recommended workflow's full factorial, the paired
 * base/enhanced enhancement analysis — reduces to the same schedulable
 * unit: a batch of independent (workload, configuration) simulations.
 * SimulationEngine runs such batches on a work-stealing thread pool
 * (SimJobQueue), memoizes pure runs in a RunCache, and feeds a
 * ProgressReporter, so the dominant cost of the reproduction scales
 * with cores and repeated configurations are free.
 *
 * Determinism: job results are written by job index, so the responses
 * are bit-identical regardless of thread count or scheduling order
 * (the simulator itself is deterministic).
 *
 * Fault tolerance: each batch runs under a FaultPolicy — bounded
 * retries for transient faults, a cooperative per-attempt deadline
 * that converts hung simulations into diagnosable timeouts, and an
 * optional collect-all-failures mode that quarantines failed jobs
 * (NaN response + JobFailure record) instead of cancelling the
 * batch. The default policy is the historical fail-fast behavior:
 * the first failing job cancels the batch and the rethrown error
 * names the job's label plus its attempt count and elapsed wall
 * time.
 *
 * Durability: an attached ResultJournal persists every completed
 * run's CellResult (fsync per record), and is consulted like a
 * second-level cache — an interrupted campaign resumed against the
 * same journal replays completed runs, sampling CIs included, from
 * disk instead of re-simulating them.
 *
 * Isolation: the attempt executor is a swappable SimulateFn
 * (EngineOptions::simulate / setSimulate). The default runs attempts
 * in-process on the worker threads; a campaign that must survive
 * crashes, OOM kills, and non-cooperative hangs swaps in the dispatch
 * function of an exec::proc::ProcWorkerPool, which ships each attempt
 * to a forked sandbox worker and maps its death back into the fault
 * taxonomy. The program that owns the pool attaches it; the
 * experiment drivers never choose an executor.
 */

#ifndef RIGOR_EXEC_ENGINE_HH
#define RIGOR_EXEC_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/fault_policy.hh"
#include "exec/progress.hh"
#include "exec/run_cache.hh"
#include "sample/sampling.hh"
#include "sim/core.hh"
#include "trace/workload_profile.hh"

namespace rigor::obs
{
class MetricsRegistry;
class TraceWriter;
class Counter;
class Gauge;
class Histogram;
} // namespace rigor::obs

namespace rigor::exec
{

class ResultJournal;

/** One independent simulation in a batch. */
struct SimJob
{
    /** Workload to simulate; must outlive the batch. */
    const trace::WorkloadProfile *workload = nullptr;
    sim::ProcessorConfig config;
    /** Measured dynamic instructions. */
    std::uint64_t instructions = 0;
    /** Leading warm-up instructions (excluded from the response). */
    std::uint64_t warmupInstructions = 0;
    /**
     * Sampled-simulation schedule. When enabled, the run streams the
     * same instructions but simulates only periodic units in detail
     * (sample::runSampled); the run's CellResult carries the
     * extrapolated cycle count and the SampleSummary.
     */
    sample::SamplingOptions sampling;
    /**
     * Optional enhancement-hook builder, already bound to the
     * workload; called once per executed run (never for cache hits).
     * Must be callable from any worker thread.
     */
    std::function<std::unique_ptr<sim::ExecutionHook>()> makeHook;
    /**
     * Stable cache identity of makeHook's product, part of the run
     * key. Required when makeHook is set: SimulationEngine::run
     * rejects a hooked job without one.
     */
    std::string hookId;
    /** Failure context, e.g. "gzip, design row 17". */
    std::string label;
};

/**
 * Executes one attempt of one job and returns its whole result.
 * Replaceable via EngineOptions for fault injection and lightweight
 * test stubs (a stub returning a cycle count reports a full run);
 * implementations should poll ctx.checkDeadline() if they run long.
 * Must be thread-safe.
 */
using SimulateFn = std::function<CellResult(const SimJob &job,
                                            const AttemptContext &ctx)>;

/** Where one completed job's response came from. */
enum class RunSource
{
    /** Actually simulated this batch. */
    Simulated,
    /** Served from the in-memory RunCache. */
    CacheHit,
    /** Replayed from the crash-safe ResultJournal (resume). */
    JournalReplay,
};

/** Display name ("simulated" / "cache" / "journal"). */
std::string toString(RunSource source);

/**
 * One job's terminal outcome, delivered to the engine's job observer
 * from the worker thread that finished it (observers must be
 * thread-safe). This is the manifest's per-cell feed and the campaign
 * CLI's replay progress line.
 */
struct JobEvent
{
    std::size_t jobIndex = 0;
    /** The job; valid only for the duration of the callback. */
    const SimJob *job = nullptr;
    RunSource source = RunSource::Simulated;
    /** False when the job terminally failed (quarantine/fail-fast). */
    bool ok = false;
    /** Attempts made; 0 for cache hits and journal replays. */
    unsigned attempts = 0;
    /** Wall time of this job on its worker (lookup + attempts). */
    double wallSeconds = 0.0;
    /** The cell's result from whichever source served it; cycles
     *  are NaN when !ok. */
    CellResult result;
    /** Run-cache key (config hash first). */
    std::string runKey;
};

/** Per-job completion callback; must be thread-safe. */
using JobObserver = std::function<void(const JobEvent &)>;

/** Engine construction knobs. */
struct EngineOptions
{
    EngineOptions() = default;
    EngineOptions(unsigned num_threads, bool cache_enabled,
                  SimulateFn simulate_fn = {})
        : threads(num_threads), cacheEnabled(cache_enabled),
          simulate(std::move(simulate_fn))
    {
    }

    /** Worker threads; 0 = hardware concurrency (min 4 fallback). */
    unsigned threads = 0;
    /** Memoize pure runs across batches. */
    bool cacheEnabled = true;
    /**
     * Attempt executor; empty = the real deadline-guarded simulator
     * (SimulationEngine::simulateJob with cooperative watchdog).
     */
    SimulateFn simulate;
};

/** Reusable batch executor; share one per experiment to share the
 *  cache and the progress counters across phases. */
class SimulationEngine
{
  public:
    explicit SimulationEngine(const EngineOptions &options = {});

    /**
     * Run every job fail-fast (default FaultPolicy) and return the
     * responses (measured cycles) in job order. Throws
     * std::runtime_error naming the failing job's label, attempt
     * count, and elapsed time if any simulation fails.
     */
    std::vector<double> run(std::span<const SimJob> jobs);

    /**
     * Run every job under @p policy. With policy.collectFailures the
     * batch always completes: quarantined jobs come back as NaN
     * responses plus JobFailure records. Without it, the first
     * permanently failed job (retries exhausted) cancels the batch
     * and throws. BatchAbort (journal I/O failure, crash drill)
     * always cancels and propagates regardless of the policy. A
     * batch holding a job with makeHook set and an empty hookId is
     * rejected with std::invalid_argument before any job runs.
     *
     * Not reentrant: one batch at a time. A nested or concurrent
     * run() call throws std::logic_error instead of silently
     * corrupting the progress counters.
     */
    BatchResult run(std::span<const SimJob> jobs,
                    const FaultPolicy &policy);

    /** Resolved worker-thread count. */
    unsigned threads() const { return _threads; }

    RunCache &cache() { return _cache; }
    const RunCache &cache() const { return _cache; }

    /** The engine's one record of job outcomes (see progress.hh). */
    const ProgressReporter &progress() const { return _progress; }

    /**
     * Replace the attempt executor mid-lifetime (empty restores the
     * default in-process simulator). This is the isolation seam: a
     * program swaps in a ProcWorkerPool's dispatch function to run
     * attempts in sandboxed child processes; the pool must outlive
     * every batch run through it. Must not be called while a batch
     * is running.
     */
    void setSimulate(SimulateFn simulate);

    /**
     * Attach (or detach, with nullptr) a crash-safe result journal.
     * Not owned; must outlive every subsequent run(). Journaled runs
     * are replayed like cache hits on later batches — including
     * after a process restart against the same journal file.
     */
    void setJournal(ResultJournal *journal) { _journal = journal; }
    ResultJournal *journal() const { return _journal; }

    /**
     * Attach (or detach, with nullptr) a metrics registry. The run
     * counters engine.runs.{completed,simulated,cache_hits,
     * journal_replays,failed} and engine.retries are not counted
     * separately: after each batch's workers join, the engine adds
     * the batch's progress delta to them (simulated = completed -
     * cache_hits - journal_replays), also for a batch that aborts or
     * fails fast. Recorded per simulated run, on the worker fast
     * path, with instruments resolved once here: the counter
     * engine.runs.sampled and the histograms engine.run.wall_seconds,
     * sim.run.mips, sample.units, sample.rel_error. Per batch: the
     * counters engine.batches, engine.queue.steals and the gauges
     * engine.workers.busy_fraction, engine.queue.initial_depth.
     * Not owned; must outlive every subsequent run().
     */
    void setMetrics(obs::MetricsRegistry *metrics);
    obs::MetricsRegistry *metrics() const { return _metrics; }

    /**
     * Attach (or detach) a Chrome trace sink: one "batch" span on
     * lane 0 per run() call, one span per job on its worker's lane
     * (tid = worker + 1). Not owned; must outlive every run().
     */
    void setTraceWriter(obs::TraceWriter *trace) { _trace = trace; }
    obs::TraceWriter *traceWriter() const { return _trace; }

    /**
     * Attach (or detach, with {}) a per-job completion observer,
     * invoked from worker threads as each job finishes (cache hit,
     * journal replay, simulated, or terminally failed).
     */
    void setJobObserver(JobObserver observer)
    {
        _observer = std::move(observer);
    }
    const JobObserver &jobObserver() const { return _observer; }

    /**
     * Execute one job unconditionally (no cache, no counters) — the
     * single-run primitive every executor (thread, sandbox) ends in.
     *
     * The calling thread keeps the last stream it generated, keyed by
     * the full WorkloadProfile and the stream length, and replays it
     * for the next job with the same key instead of regenerating it;
     * streams over 32 MiB (about 600k instructions) are never kept.
     * The kept stream is held until the thread ends. Batches ordered
     * benchmark-major (all rows of one workload adjacent) therefore
     * generate each stream about once per worker. The thread also
     * keeps one timing core until it ends and reconfigures it for
     * each job instead of building a new one.
     *
     * It polls ctx.checkDeadline() from the trace source every few
     * thousand instructions, so a wedged run surfaces as
     * DeadlineExceeded (a default AttemptContext has no deadline).
     * This is the engine's default SimulateFn and the inner executor
     * fault injectors wrap.
     */
    static CellResult simulateJob(const SimJob &job,
                                  const AttemptContext &ctx);

  private:
    /** Outcome of one job under the policy (internal): its event
     *  (wallSeconds left to the caller) and, when !event.ok, its
     *  failure record. */
    struct RunOutcome
    {
        JobEvent event;
        JobFailure failure;
    };

    /** Metric instruments resolved once per setMetrics() call, so
     *  the worker fast path never touches the registry lock. */
    struct Instruments
    {
        obs::Counter *batches = nullptr;
        obs::Counter *steals = nullptr;
        obs::Counter *sampledRuns = nullptr;
        obs::Histogram *runWallSeconds = nullptr;
        obs::Histogram *mips = nullptr;
        obs::Histogram *sampleUnits = nullptr;
        obs::Histogram *sampleRelError = nullptr;
        obs::Gauge *busyFraction = nullptr;
        obs::Gauge *queueDepth = nullptr;
    };

    /** Run one job through journal + cache + retry loop + progress. */
    RunOutcome runOne(const SimJob &job, std::size_t index,
                      const FaultPolicy &policy);

    unsigned _threads;
    bool _cacheEnabled;
    SimulateFn _simulate;
    RunCache _cache;
    ProgressReporter _progress;
    ResultJournal *_journal = nullptr;
    obs::MetricsRegistry *_metrics = nullptr;
    obs::TraceWriter *_trace = nullptr;
    JobObserver _observer;
    Instruments _instruments;
    /** Reentrancy guard: run() in progress. */
    std::atomic<bool> _running{false};
};

} // namespace rigor::exec

#endif // RIGOR_EXEC_ENGINE_HH
