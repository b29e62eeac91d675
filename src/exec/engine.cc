#include "exec/engine.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "exec/journal.hh"
#include "exec/sim_job_queue.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "trace/generator.hh"
#include "trace/vector_source.hh"

namespace rigor::exec
{

std::string
toString(RunSource source)
{
    switch (source) {
    case RunSource::Simulated:
        return "simulated";
    case RunSource::CacheHit:
        return "cache";
    case RunSource::JournalReplay:
        return "journal";
    }
    return "unknown";
}

namespace
{

unsigned
resolveThreads(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : hw;
}

/**
 * Longest stream a worker records for replay, in bytes. It holds
 * about 600k instructions at 56 B each: tools/campaign's 20k, the
 * library default of 200k and the table harnesses' 100k + 100k
 * warm-up all fit, while a deliberately huge run (tens of millions
 * of instructions) streams as before instead of allocating gigabytes.
 */
constexpr std::uint64_t kMaxRecordedTraceBytes = std::uint64_t{32}
                                                 << 20;

/**
 * One worker's last fully generated stream and its profile, with the
 * L1 cache and TLB outcome tracks of the design rows that replayed it
 * (one per geometry; see sim::StreamTracks).
 */
struct RecordedTrace
{
    trace::WorkloadProfile profile;
    trace::VectorTraceSource stream{{}};
    sim::StreamTracks tracks;
};

/**
 * Per-worker trace reuse. Every PB row of a benchmark observes the
 * same stream, and SimJobQueue hands each engine thread contiguous
 * benchmark-major index ranges, so a single slot per thread replays
 * a benchmark's stream for all but about one of its design rows. A
 * sandbox process is not tied to one engine thread (it takes
 * whichever attempt comes next), so its jobs mix benchmarks more
 * often and it hits somewhat less.
 *
 * On a hit (same profile and length as the slot) the source replays
 * the slot, and a full run reads it as a span (recorded()) with the
 * L1 caches and TLBs replaying the slot's tracks (tracksFor()). On a
 * miss it empties the slot, tracks included, and generates the
 * stream, recording it as the core pulls it unless it exceeds
 * kMaxRecordedTraceBytes. The recording moves into the slot only
 * when the generator is drained, so an attempt that throws or times
 * out mid-stream leaves nothing to replay. A track is built whole
 * before its run starts, so a failed attempt leaves no partial one.
 * The slot lives as long as its thread: after its last job a worker
 * still holds up to kMaxRecordedTraceBytes of stream plus its
 * tracks, 2 bits per non-repeat access for each of at most a few
 * dozen geometries (a fraction of the stream's size); both count
 * against a sandbox's memLimitMb.
 */
class RecordingTraceSource : public trace::TraceSource
{
  public:
    RecordingTraceSource(const trace::WorkloadProfile &profile,
                         std::uint64_t length)
        : _profile(profile)
    {
        if (_slot.stream.length() == length && _slot.profile == profile) {
            _slot.stream.reset();
            return;
        }
        _slot.stream = trace::VectorTraceSource({});
        _slot.tracks.clear();
        _generator.emplace(profile, length);
        _recording =
            length <= kMaxRecordedTraceBytes / sizeof(trace::Instruction);
        if (_recording)
            _recorded.reserve(length);
    }

    /** The slot's stream when this source replays it, else nullopt. */
    std::optional<std::span<const trace::Instruction>>
    recorded() const
    {
        if (_generator)
            return std::nullopt;
        return _slot.stream.instructions();
    }

    /** The slot's tracks for a run of @p config over recorded(),
     *  built on first use. Only while replaying. */
    sim::L1Tracks
    tracksFor(const sim::ProcessorConfig &config)
    {
        return _slot.tracks.tracksFor(config, *recorded());
    }

    bool
    next(trace::Instruction &out) override
    {
        if (!_generator)
            return _slot.stream.next(out);
        if (!_generator->next(out)) {
            if (_recording) {
                _slot.profile = _profile;
                _slot.stream =
                    trace::VectorTraceSource(std::move(_recorded));
                _recording = false;
            }
            return false;
        }
        if (_recording)
            _recorded.push_back(out);
        return true;
    }

    void
    reset() override
    {
        if (!_generator) {
            _slot.stream.reset();
            return;
        }
        _generator->reset();
        _recorded.clear();
    }

    std::uint64_t
    length() const override
    {
        return _generator ? _generator->length() : _slot.stream.length();
    }

    /**
     * Generate and record whatever the job left unread (a sampled
     * run stops short of the end), so the recording becomes
     * replayable. Called only after the job succeeded.
     */
    void
    finishRecording()
    {
        trace::Instruction inst;
        while (_recording && next(inst)) {
        }
    }

  private:
    static thread_local RecordedTrace _slot;

    const trace::WorkloadProfile &_profile;
    std::optional<trace::SyntheticTraceGenerator> _generator;
    bool _recording = false;
    std::vector<trace::Instruction> _recorded;
};

thread_local RecordedTrace RecordingTraceSource::_slot;

/**
 * Per-worker core reuse. Building a core costs more than a short run
 * of it, so each thread (engine thread, sandbox process) keeps one
 * core until it ends and reconfigures it for every job, in O(1) of
 * ring and cache size (see SuperscalarCore::reconfigure). The core's
 * cache buffers stay sized for the largest geometry the worker has
 * run, which counts against a sandbox's memLimitMb like the kept
 * trace and its tracks. Reconfiguring also detaches the tracks the
 * previous job replayed, so a job whose stream is generated, or
 * sampled, runs every structure live.
 *
 * The lease is also the cooperative watchdog: an attempt with a
 * deadline has the core poll it every SuperscalarCore::pollInterval
 * instructions, so a wedged simulation throws DeadlineExceeded
 * within a few thousand instructions of the budget expiring instead
 * of hanging the worker. Releasing the lease detaches the job's hook
 * and the poll, so the slot never points at a destroyed one.
 */
class CoreLease
{
  public:
    CoreLease(const sim::ProcessorConfig &config,
              sim::ExecutionHook *hook, const AttemptContext &ctx)
    {
        if (_slot)
            _slot->reconfigure(config, hook);
        else
            _slot.emplace(config, hook);
        if (ctx.hasDeadline())
            _slot->setPoll([&ctx] { ctx.checkDeadline(); });
    }
    ~CoreLease()
    {
        _slot->detachHook();
        _slot->setPoll({});
    }
    CoreLease(const CoreLease &) = delete;
    CoreLease &operator=(const CoreLease &) = delete;

    sim::SuperscalarCore &core() { return *_slot; }

  private:
    static thread_local std::optional<sim::SuperscalarCore> _slot;
};

thread_local std::optional<sim::SuperscalarCore> CoreLease::_slot;

/**
 * Add one batch's run counts, taken from its progress delta, to the
 * registry's run counters. An empty delta only registers them.
 */
void
publishRunCounts(obs::MetricsRegistry &metrics,
                 const ProgressSnapshot &batch)
{
    metrics.counter("engine.runs.completed").add(batch.runsCompleted);
    metrics.counter("engine.runs.simulated")
        .add(batch.runsCompleted - batch.cacheHits - batch.journalHits);
    metrics.counter("engine.runs.cache_hits").add(batch.cacheHits);
    metrics.counter("engine.runs.journal_replays")
        .add(batch.journalHits);
    metrics.counter("engine.runs.failed").add(batch.failedJobs);
    metrics.counter("engine.retries").add(batch.retries);
}

/** The SimulateFn an engine runs when none is given. */
CellResult
defaultSimulate(const SimJob &job, const AttemptContext &ctx)
{
    return SimulationEngine::simulateJob(job, ctx);
}

} // namespace

SimulationEngine::SimulationEngine(const EngineOptions &options)
    : _threads(resolveThreads(options.threads)),
      _cacheEnabled(options.cacheEnabled),
      _simulate(options.simulate ? options.simulate : defaultSimulate)
{
}

void
SimulationEngine::setSimulate(SimulateFn simulate)
{
    if (_running.load())
        throw std::logic_error(
            "SimulationEngine::setSimulate: a batch is in progress");
    _simulate = simulate ? std::move(simulate) : defaultSimulate;
}

void
SimulationEngine::setMetrics(obs::MetricsRegistry *metrics)
{
    _metrics = metrics;
    _instruments = Instruments{};
    if (metrics == nullptr)
        return;
    publishRunCounts(*metrics, {});
    _instruments.batches = &metrics->counter("engine.batches");
    _instruments.steals = &metrics->counter("engine.queue.steals");
    static constexpr double kWallBounds[] = {1e-4, 1e-3, 1e-2, 0.1,
                                             1.0,  10.0, 60.0};
    _instruments.runWallSeconds =
        &metrics->histogram("engine.run.wall_seconds", kWallBounds);
    static constexpr double kMipsBounds[] = {1.0,   2.0,   5.0,
                                             10.0,  20.0,  50.0,
                                             100.0, 200.0, 500.0};
    _instruments.mips = &metrics->histogram("sim.run.mips", kMipsBounds);
    _instruments.sampledRuns =
        &metrics->counter("engine.runs.sampled");
    static constexpr double kUnitBounds[] = {5.0,   10.0,  20.0,
                                             50.0,  100.0, 200.0,
                                             500.0, 1000.0};
    _instruments.sampleUnits =
        &metrics->histogram("sample.units", kUnitBounds);
    static constexpr double kRelErrBounds[] = {0.001, 0.002, 0.005,
                                               0.01,  0.02,  0.05,
                                               0.1,   0.2};
    _instruments.sampleRelError =
        &metrics->histogram("sample.rel_error", kRelErrBounds);
    _instruments.busyFraction =
        &metrics->gauge("engine.workers.busy_fraction");
    _instruments.queueDepth =
        &metrics->gauge("engine.queue.initial_depth");
}

CellResult
SimulationEngine::simulateJob(const SimJob &job,
                              const AttemptContext &ctx)
{
    std::unique_ptr<sim::ExecutionHook> hook;
    if (job.makeHook)
        hook = job.makeHook();
    RecordingTraceSource stream(*job.workload,
                                job.instructions + job.warmupInstructions);
    CoreLease lease(job.config, hook.get(), ctx);
    sim::SuperscalarCore &core = lease.core();

    if (job.sampling.enabled) {
        // Sampled mode owns its own per-unit warm-up; the job-level
        // warm-up only pads the stream the schedule covers.
        const sample::SampleSummary summary =
            sample::runSampled(core, stream, job.sampling);
        stream.finishRecording();
        return CellResult::sampled(summary);
    }

    const std::optional<std::span<const trace::Instruction>> recorded =
        stream.recorded();
    if (!recorded)
        return static_cast<double>(
            core.run(stream, job.warmupInstructions).measuredCycles());
    // A replayed stream runs as a span (no virtual call per
    // instruction), and the fresh core replays the worker's L1 cache
    // and TLB tracks of it over the whole span.
    core.replay(stream.tracksFor(job.config));
    return static_cast<double>(
        core.run(*recorded, job.warmupInstructions).measuredCycles());
}

SimulationEngine::RunOutcome
SimulationEngine::runOne(const SimJob &job, std::size_t index,
                         const FaultPolicy &policy)
{
    const bool journaled = _journal != nullptr;
    const bool keyed = _cacheEnabled || journaled || _observer;
    RunKey key;
    if (keyed) {
        key.workload = job.workload->name;
        key.config = job.config;
        key.instructions = job.instructions;
        key.warmupInstructions = job.warmupInstructions;
        key.hookId = job.hookId;
        key.samplingId = job.sampling.id();
    }

    RunOutcome outcome;
    JobEvent &event = outcome.event;
    event.jobIndex = index;
    event.job = &job;
    if (_observer)
        event.runKey = key.toString();
    if (_cacheEnabled) {
        if (std::optional<CellResult> cached = _cache.lookup(key)) {
            _progress.addCacheHit();
            _progress.addCompleted();
            event.ok = true;
            event.source = RunSource::CacheHit;
            event.result = std::move(*cached);
            return outcome;
        }
    }
    if (journaled) {
        if (std::optional<CellResult> replayed = _journal->lookup(key)) {
            if (_cacheEnabled)
                _cache.store(key, *replayed);
            _progress.addJournalHit();
            _progress.addCompleted();
            event.ok = true;
            event.source = RunSource::JournalReplay;
            event.result = std::move(*replayed);
            return outcome;
        }
    }

    const auto job_start = std::chrono::steady_clock::now();
    JobFailure &failure = outcome.failure;
    failure.jobIndex = index;
    failure.label = job.label;

    const unsigned max_attempts = policy.attempts();
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        AttemptContext ctx;
        ctx.jobIndex = index;
        ctx.attempt = attempt;
        ctx.deadlineBudget = policy.attemptDeadline;
        if (ctx.hasDeadline())
            ctx.deadline = std::chrono::steady_clock::now() +
                           policy.attemptDeadline;

        bool retryable = false;
        try {
            event.result = _simulate(job, ctx);
            const std::optional<sample::SampleSummary> &sample =
                event.result.sample;
            if (journaled)
                _journal->append(key, event.result);
            if (_cacheEnabled)
                _cache.store(key, event.result);
            // Progress tracks the *detailed* simulation work: a
            // sampled run only pays for its warm-up + measured units.
            _progress.addSimulatedInstructions(
                sample ? sample->detailedInstructions
                       : job.instructions + job.warmupInstructions);
            _progress.addCompleted();
            event.ok = true;
            event.attempts = attempt;
            if (_instruments.runWallSeconds) {
                const double wall =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - job_start)
                        .count();
                _instruments.runWallSeconds->observe(wall);
                if (wall > 0.0)
                    _instruments.mips->observe(
                        static_cast<double>(job.instructions +
                                            job.warmupInstructions) /
                        wall / 1e6);
                if (sample) {
                    _instruments.sampledRuns->add();
                    _instruments.sampleUnits->observe(
                        static_cast<double>(sample->units));
                    _instruments.sampleRelError->observe(
                        sample->relativeError);
                }
            }
            return outcome;
        } catch (const BatchAbort &) {
            throw; // infrastructure failure: cancel the whole batch
        } catch (const TransientFault &e) {
            failure.kind = FailureKind::Transient;
            failure.message = e.what();
            retryable = true;
        } catch (const DeadlineExceeded &e) {
            failure.kind = FailureKind::Timeout;
            failure.message = e.what();
            retryable = true;
        } catch (const ResourceExhausted &e) {
            // The same run would exhaust the same cap again.
            failure.kind = FailureKind::Resource;
            failure.message = e.what();
        } catch (const std::exception &e) {
            // A deterministic simulator rethrows the same error on
            // every retry; don't burn attempts on it.
            failure.kind = FailureKind::Permanent;
            failure.message = e.what();
        }
        failure.attempts = attempt;
        if (!retryable || attempt == max_attempts)
            break;
        _progress.addRetry();
    }

    failure.elapsedSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - job_start)
            .count();
    _progress.addFailed();
    event.attempts = failure.attempts;
    event.result = std::numeric_limits<double>::quiet_NaN();
    return outcome;
}

std::vector<double>
SimulationEngine::run(std::span<const SimJob> jobs)
{
    return std::move(run(jobs, FaultPolicy{}).responses);
}

BatchResult
SimulationEngine::run(std::span<const SimJob> jobs,
                      const FaultPolicy &policy)
{
    // Checked here, not in a worker: an exception thrown on a worker
    // thread would end the process.
    for (const SimJob &job : jobs)
        if (job.makeHook && job.hookId.empty())
            throw std::invalid_argument(
                "SimulationEngine::run: hooked job '" + job.label +
                "' has no hookId");
    if (_running.exchange(true))
        throw std::logic_error(
            "SimulationEngine::run: a batch is already in progress "
            "(the engine is not reentrant; use one engine per "
            "concurrent batch)");
    struct RunningGuard
    {
        std::atomic<bool> &flag;
        ~RunningGuard() { flag.store(false); }
    } guard{_running};

    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t trace_start =
        _trace != nullptr ? _trace->nowMicros() : 0;
    const ProgressSnapshot before = _progress.snapshot();
    _progress.addSubmitted(jobs.size());

    BatchResult result;
    result.responses.assign(
        jobs.size(), std::numeric_limits<double>::quiet_NaN());
    result.ciHalfWidths.assign(jobs.size(), 0.0);

    std::atomic<bool> cancelled{false};
    std::exception_ptr abort_error;
    std::vector<JobFailure> failures;
    std::mutex failure_mutex;

    const unsigned num_threads = static_cast<unsigned>(
        std::min<std::size_t>(_threads, jobs.size()));

    SimJobQueue queue(jobs.size(), std::max(1u, num_threads));
    /** Per-worker wall time spent inside runOne (busy fraction). */
    std::vector<double> busy_seconds(std::max(1u, num_threads), 0.0);
    const auto worker = [&](unsigned id) {
        std::size_t index;
        while (queue.pop(id, index)) {
            if (cancelled.load(std::memory_order_relaxed))
                return;
            const auto job_begin = std::chrono::steady_clock::now();
            const std::uint64_t span_begin =
                _trace != nullptr ? _trace->nowMicros() : 0;
            RunOutcome outcome;
            try {
                outcome = runOne(jobs[index], index, policy);
            } catch (const BatchAbort &) {
                const std::scoped_lock lock(failure_mutex);
                if (!abort_error)
                    abort_error = std::current_exception();
                cancelled.store(true, std::memory_order_relaxed);
                return;
            }
            JobEvent &event = outcome.event;
            event.wallSeconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - job_begin)
                    .count();
            busy_seconds[id] += event.wallSeconds;
            if (_trace != nullptr) {
                obs::TraceWriter::Args args;
                args.emplace_back("source", toString(event.source));
                args.emplace_back("attempts",
                                  std::to_string(event.attempts));
                _trace->addCompleteEvent(
                    jobs[index].label, "job", span_begin,
                    _trace->nowMicros() - span_begin, id + 1,
                    std::move(args));
            }
            if (_observer)
                _observer(event);
            if (event.ok) {
                // Once the batch is cancelled no further result slot
                // is written; the batch's responses are abandoned.
                if (!cancelled.load(std::memory_order_relaxed)) {
                    result.responses[index] = event.result.cycles;
                    result.ciHalfWidths[index] =
                        event.result.ciHalfWidthCycles();
                }
                continue;
            }
            {
                const std::scoped_lock lock(failure_mutex);
                failures.push_back(std::move(outcome.failure));
            }
            if (!policy.collectFailures) {
                cancelled.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    if (num_threads <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(num_threads);
        for (unsigned t = 0; t < num_threads; ++t)
            pool.emplace_back(worker, t);
        for (std::thread &t : pool)
            t.join();
    }

    const auto elapsed = std::chrono::steady_clock::now() - start;
    _progress.addWallNanos(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));

    // Publish the batch's run counts from its progress delta, before
    // any abort or fail-fast rethrow, so the registry agrees with the
    // progress counters after every batch. The engine is not
    // reentrant, so the delta is this batch's alone.
    if (_metrics != nullptr) {
        publishRunCounts(*_metrics, _progress.snapshot().since(before));
        _instruments.batches->add();
        _instruments.steals->add(queue.steals());
        _instruments.queueDepth->set(
            static_cast<double>(queue.initialDepth()));
        const double wall =
            std::chrono::duration<double>(elapsed).count();
        double busy_total = 0.0;
        for (const double b : busy_seconds)
            busy_total += b;
        if (wall > 0.0 && num_threads > 0)
            _instruments.busyFraction->set(
                busy_total / (wall * num_threads));
    }
    if (_trace != nullptr) {
        obs::TraceWriter::Args args;
        args.emplace_back("jobs", std::to_string(jobs.size()));
        args.emplace_back("workers",
                          std::to_string(std::max(1u, num_threads)));
        args.emplace_back("steals", std::to_string(queue.steals()));
        _trace->addCompleteEvent(
            "engine.batch", "engine", trace_start,
            _trace->nowMicros() - trace_start, 0, std::move(args));
    }

    if (abort_error)
        std::rethrow_exception(abort_error);

    std::sort(failures.begin(), failures.end(),
              [](const JobFailure &a, const JobFailure &b) {
                  return a.jobIndex < b.jobIndex;
              });
    if (!policy.collectFailures && !failures.empty())
        throw std::runtime_error("SimulationEngine: " +
                                 failures.front().toString());
    result.failures = std::move(failures);
    return result;
}

} // namespace rigor::exec
