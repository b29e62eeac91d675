#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "doe/design_matrix.hh"
#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "exec/engine.hh"
#include "exec/journal.hh"
#include "exec/proc/worker_pool.hh"
#include "exec/run_cache.hh"
#include "exec/sim_job_queue.hh"
#include "methodology/parameter_space.hh"
#include "methodology/pb_experiment.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "sample/sampling.hh"
#include "sim/core.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace obs = rigor::obs;
namespace proc = rigor::exec::proc;
namespace sample = rigor::sample;
namespace sim = rigor::sim;
namespace trace = rigor::trace;

namespace
{

/** A small heterogeneous batch: two workloads x two configurations. */
std::vector<exec::SimJob>
smallBatch(const std::vector<trace::WorkloadProfile> &workloads,
           std::uint64_t instructions = 3000)
{
    std::vector<exec::SimJob> jobs;
    for (const trace::WorkloadProfile &w : workloads) {
        for (doe::Level level : {doe::Level::Low, doe::Level::High}) {
            exec::SimJob job;
            job.workload = &w;
            job.config = methodology::uniformConfig(level);
            job.instructions = instructions;
            job.label = w.name;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

} // namespace

// ----- SimJobQueue -----

TEST(SimJobQueue, SingleWorkerDrainsInOrder)
{
    exec::SimJobQueue queue(5, 1);
    std::size_t job;
    for (std::size_t expected = 0; expected < 5; ++expected) {
        ASSERT_TRUE(queue.pop(0, job));
        EXPECT_EQ(job, expected);
    }
    EXPECT_FALSE(queue.pop(0, job));
}

TEST(SimJobQueue, EveryJobDeliveredExactlyOnce)
{
    constexpr std::size_t num_jobs = 1000;
    constexpr unsigned num_workers = 8;
    exec::SimJobQueue queue(num_jobs, num_workers);

    std::vector<std::atomic<int>> delivered(num_jobs);
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < num_workers; ++w) {
        pool.emplace_back([&queue, &delivered, w]() {
            std::size_t job;
            while (queue.pop(w, job))
                delivered[job].fetch_add(1);
        });
    }
    for (std::thread &t : pool)
        t.join();
    for (std::size_t j = 0; j < num_jobs; ++j)
        EXPECT_EQ(delivered[j].load(), 1) << "job " << j;
}

TEST(SimJobQueue, StealingDrainsUnbalancedLoad)
{
    // Worker 1 never pops its own range; worker 0 must steal it all.
    exec::SimJobQueue queue(64, 2);
    std::set<std::size_t> seen;
    std::size_t job;
    while (queue.pop(0, job))
        seen.insert(job);
    EXPECT_EQ(seen.size(), 64u);
}

TEST(SimJobQueue, EmptyQueueIsDrained)
{
    exec::SimJobQueue queue(0, 4);
    std::size_t job;
    EXPECT_FALSE(queue.pop(2, job));
}

TEST(SimJobQueue, CancelledBatchLeavesUndrainedJobsSafely)
{
    // The engine's fail-fast path makes every worker stop popping
    // mid-batch and the queue is destroyed with jobs still enqueued:
    // concurrent pops racing the cancel flag and the teardown must be
    // clean (this is the scenario the tsan preset races).
    constexpr std::size_t num_jobs = 2000;
    constexpr unsigned num_workers = 4;
    exec::SimJobQueue queue(num_jobs, num_workers);
    std::atomic<bool> cancel{false};
    std::atomic<std::size_t> delivered{0};
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < num_workers; ++w) {
        pool.emplace_back([&queue, &cancel, &delivered, w]() {
            std::size_t job;
            while (!cancel.load(std::memory_order_acquire) &&
                   queue.pop(w, job)) {
                // One worker "fails" early and cancels the batch.
                if (delivered.fetch_add(1) == 40)
                    cancel.store(true, std::memory_order_release);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    EXPECT_GE(delivered.load(), 41u);
    EXPECT_LT(delivered.load(), num_jobs)
        << "cancellation must leave the tail of the batch undrained";
}

TEST(SimJobQueue, SurvivorsDrainAnAbandonedWorkersShard)
{
    // A worker that aborts before its first pop (the BatchAbort path)
    // abandons its dealt range; the survivors must steal and finish
    // every job it left behind.
    constexpr std::size_t num_jobs = 256;
    constexpr unsigned num_workers = 4;
    exec::SimJobQueue queue(num_jobs, num_workers);
    std::vector<std::atomic<int>> delivered(num_jobs);
    std::vector<std::thread> pool;
    for (unsigned w = 1; w < num_workers; ++w) { // worker 0 never pops
        pool.emplace_back([&queue, &delivered, w]() {
            std::size_t job;
            while (queue.pop(w, job))
                delivered[job].fetch_add(1);
        });
    }
    for (std::thread &t : pool)
        t.join();
    for (std::size_t j = 0; j < num_jobs; ++j)
        EXPECT_EQ(delivered[j].load(), 1) << "job " << j;
}

// ----- RunCache -----

TEST(RunCache, StoreThenLookupReturnsExactValue)
{
    exec::RunCache cache;
    exec::RunKey key;
    key.workload = "gzip";
    key.config = methodology::uniformConfig(doe::Level::High);
    key.instructions = 1000;

    EXPECT_FALSE(cache.lookup(key).has_value());
    const double value = 123456789.0000001;
    cache.store(key, value);
    const std::optional<exec::CellResult> hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cycles, value); // bit-exact, not approximately
    EXPECT_EQ(cache.size(), 1u);
}

TEST(RunCache, StoresTheWholeCellResult)
{
    exec::RunCache cache;
    exec::RunKey key;
    key.workload = "gzip";
    rigor::sample::SampleSummary summary;
    summary.units = 4;
    summary.ciHalfWidth = 0.25;
    summary.estimatedCycles = 1234.5;
    cache.store(key, exec::CellResult::sampled(summary));

    const std::optional<exec::CellResult> hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cycles, 1234.5);
    ASSERT_TRUE(hit->sample.has_value());
    EXPECT_EQ(*hit->sample, summary);
}

TEST(RunCache, DistinguishesEveryKeyComponent)
{
    exec::RunCache cache;
    exec::RunKey key;
    key.workload = "gzip";
    key.config = methodology::uniformConfig(doe::Level::High);
    key.instructions = 1000;
    cache.store(key, 1.0);

    exec::RunKey other = key;
    other.workload = "mcf";
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = key;
    other.instructions = 2000;
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = key;
    other.warmupInstructions = 500;
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = key;
    other.hookId = "precompute";
    EXPECT_FALSE(cache.lookup(other).has_value());
    other = key;
    other.config.robEntries += 1;
    EXPECT_FALSE(cache.lookup(other).has_value());
}

// ----- ProcessorConfig hash/equality -----

TEST(ProcessorConfigHash, EqualConfigsHashEqual)
{
    const sim::ProcessorConfig a =
        methodology::uniformConfig(doe::Level::High);
    const sim::ProcessorConfig b =
        methodology::uniformConfig(doe::Level::High);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(ProcessorConfigHash, FieldChangesChangeHash)
{
    const sim::ProcessorConfig base =
        methodology::uniformConfig(doe::Level::High);
    sim::ProcessorConfig tweaked = base;
    tweaked.robEntries += 1;
    EXPECT_NE(base, tweaked);
    EXPECT_NE(base.hash(), tweaked.hash());

    tweaked = base;
    tweaked.l2.latency += 1;
    EXPECT_NE(base, tweaked);
    EXPECT_NE(base.hash(), tweaked.hash());

    tweaked = base;
    tweaked.lsqRatio = 0.75;
    EXPECT_NE(base, tweaked);
    EXPECT_NE(base.hash(), tweaked.hash());

    tweaked = base;
    tweaked.dtlbEntries *= 2;
    EXPECT_NE(base, tweaked);
    EXPECT_NE(base.hash(), tweaked.hash());
}

TEST(ProcessorConfigHash, ScreenConfigHashesArePinned)
{
    // Run keys and journal records are built on hash(): if the hash
    // of a screen row moves, a journal written by an earlier build
    // no longer resumes. Pins all 88 foldover PB rows and the default
    // configuration.
    const doe::DesignMatrix design = doe::foldover(
        doe::pbDesignForFactors(methodology::numFactors));
    ASSERT_EQ(design.numRows(), 88u);
    std::vector<sim::ProcessorConfig> configs;
    for (std::size_t r = 0; r < design.numRows(); ++r)
        configs.push_back(methodology::configForLevels(design.row(r)));
    configs.emplace_back();

    std::string bytes;
    for (const sim::ProcessorConfig &config : configs) {
        std::uint64_t h = config.hash();
        for (int b = 0; b < 8; ++b, h >>= 8)
            bytes += static_cast<char>(h & 0xff);
    }
    const std::uint64_t digest = obs::fnv1a(bytes);
    EXPECT_EQ(digest, 0x52d743847d62866cull)
        << "config hashes drifted; actual digest 0x"
        << obs::digestHex(digest) << "ull";
}

// ----- SimulationEngine -----

TEST(SimulationEngine, MatchesSimulateOnce)
{
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip"), trace::workloadByName("mcf")};
    const std::vector<exec::SimJob> jobs = smallBatch(workloads);

    exec::SimulationEngine engine(exec::EngineOptions{2, true});
    const std::vector<double> responses = engine.run(jobs);
    ASSERT_EQ(responses.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const double reference = methodology::simulateOnce(
            *jobs[i].workload, jobs[i].config, jobs[i].instructions,
            nullptr, jobs[i].warmupInstructions);
        EXPECT_EQ(responses[i], reference) << "job " << i;
    }
}

TEST(SimulationEngine, DeterministicAcrossThreadCounts)
{
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip"), trace::workloadByName("mcf")};
    const std::vector<exec::SimJob> jobs = smallBatch(workloads);

    exec::SimulationEngine serial(exec::EngineOptions{1, true});
    unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2)
        hw = 8; // exercise the pool even on small CI boxes
    exec::SimulationEngine parallel(exec::EngineOptions{hw, true});

    EXPECT_EQ(serial.run(jobs), parallel.run(jobs));
}

TEST(SimulationEngine, CacheHitsReturnExactCachedValue)
{
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip")};
    const std::vector<exec::SimJob> jobs = smallBatch(workloads);

    exec::SimulationEngine engine(exec::EngineOptions{2, true});
    const std::vector<double> first = engine.run(jobs);
    EXPECT_EQ(engine.progress().snapshot().cacheHits, 0u);

    const std::vector<double> second = engine.run(jobs);
    EXPECT_EQ(first, second); // exact values, straight from the cache

    const exec::ProgressSnapshot snap = engine.progress().snapshot();
    EXPECT_EQ(snap.cacheHits, jobs.size());
    EXPECT_EQ(snap.runsTotal, 2 * jobs.size());
    EXPECT_EQ(snap.runsCompleted, 2 * jobs.size());
}

TEST(SimulationEngine, CacheDisabledNeverHits)
{
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip")};
    const std::vector<exec::SimJob> jobs = smallBatch(workloads);

    exec::SimulationEngine engine(exec::EngineOptions{1, false});
    const std::vector<double> first = engine.run(jobs);
    const std::vector<double> second = engine.run(jobs);
    EXPECT_EQ(first, second); // deterministic even without the cache
    EXPECT_EQ(engine.progress().snapshot().cacheHits, 0u);
    EXPECT_EQ(engine.cache().size(), 0u);
}

TEST(SimulationEngine, HookedJobWithoutIdentityIsRejected)
{
    struct NoopHook : sim::ExecutionHook
    {
        bool intercept(const trace::Instruction &) override
        {
            return false;
        }
    };

    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip")};
    std::vector<exec::SimJob> jobs = smallBatch(workloads);
    jobs.back().makeHook = []() { return std::make_unique<NoopHook>(); };

    // The whole batch is refused before any job runs.
    exec::SimulationEngine engine(exec::EngineOptions{2, true});
    EXPECT_THROW(engine.run(jobs), std::invalid_argument);
    const exec::ProgressSnapshot refused = engine.progress().snapshot();
    EXPECT_EQ(refused.runsTotal, 0u);
    EXPECT_EQ(refused.runsCompleted, 0u);
    EXPECT_EQ(engine.cache().size(), 0u);

    // With a stable identity the hooked job runs and is cached.
    jobs.back().hookId = "noop";
    engine.run(jobs);
    engine.run(jobs);
    EXPECT_EQ(engine.progress().snapshot().cacheHits, jobs.size());
}

TEST(SimulationEngine, ProgressCountsSimulatedInstructions)
{
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip")};
    std::vector<exec::SimJob> jobs = smallBatch(workloads, 2000);
    for (exec::SimJob &job : jobs)
        job.warmupInstructions = 500;

    exec::SimulationEngine engine(exec::EngineOptions{1, true});
    engine.run(jobs);
    const exec::ProgressSnapshot snap = engine.progress().snapshot();
    EXPECT_EQ(snap.simulatedInstructions, jobs.size() * 2500u);
    EXPECT_GT(snap.wallSeconds, 0.0);
    EXPECT_NE(snap.toString().find("cache hits"), std::string::npos);
}

namespace
{

/** The registry's six run counters against the engine's progress. */
void
expectMetricsMatchProgress(obs::MetricsRegistry &registry,
                           const exec::ProgressSnapshot &progress)
{
    EXPECT_EQ(registry.counter("engine.runs.completed").value(),
              progress.runsCompleted);
    EXPECT_EQ(registry.counter("engine.runs.simulated").value(),
              progress.runsCompleted - progress.cacheHits -
                  progress.journalHits);
    EXPECT_EQ(registry.counter("engine.runs.cache_hits").value(),
              progress.cacheHits);
    EXPECT_EQ(registry.counter("engine.runs.journal_replays").value(),
              progress.journalHits);
    EXPECT_EQ(registry.counter("engine.runs.failed").value(),
              progress.failedJobs);
    EXPECT_EQ(registry.counter("engine.retries").value(),
              progress.retries);
}

} // namespace

/**
 * The engine publishes each batch's run counts to the registry after
 * the batch joins, so a batch that throws — a journal crash drill or a
 * fail-fast failure — still leaves the registry equal to the progress
 * counters.
 */
TEST(SimulationEngine, MetricsMatchProgressWhenABatchAborts)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    std::vector<exec::SimJob> jobs;
    for (unsigned i = 0; i < 12; ++i) {
        exec::SimJob job;
        job.workload = &w;
        job.instructions = 100 + i; // distinct keys
        job.label = i == 11 ? "bad" : "job " + std::to_string(i);
        jobs.push_back(std::move(job));
    }
    std::atomic<bool> transient_pending{true};
    exec::EngineOptions options;
    options.threads = 2;
    options.simulate = [&transient_pending](const exec::SimJob &job,
                                            const exec::AttemptContext &) {
        if (job.label == "bad")
            throw std::runtime_error("permanent failure");
        if (job.label == "job 3" && transient_pending.exchange(false))
            throw exec::TransientFault("transient failure");
        return static_cast<double>(job.instructions);
    };
    exec::SimulationEngine engine(options);
    obs::MetricsRegistry registry;
    engine.setMetrics(&registry);
    exec::FaultPolicy policy;
    policy.maxAttempts = 2;

    // Warm the cache (one transient retry included), so the aborted
    // batches mix cache hits in.
    const std::span<const exec::SimJob> good(jobs.data(), 11);
    engine.run(good.first(4), policy);
    EXPECT_EQ(registry.counter("engine.retries").value(), 1u);
    expectMetricsMatchProgress(registry, engine.progress().snapshot());

    // Crash drill: the journal dies at its fourth append, so exactly
    // three runs simulate before the batch aborts.
    const std::string path =
        std::string(::testing::TempDir()) + "engine_metrics_abort";
    std::remove(path.c_str());
    {
        exec::ResultJournal journal(path);
        journal.simulateCrashAfter(3);
        engine.setJournal(&journal);
        const exec::ProgressSnapshot before = engine.progress().snapshot();
        EXPECT_THROW(engine.run(good), exec::SimulatedCrash);
        engine.setJournal(nullptr);
        const exec::ProgressSnapshot drill =
            engine.progress().snapshot().since(before);
        EXPECT_EQ(drill.runsCompleted - drill.cacheHits, 3u);
        expectMetricsMatchProgress(registry, engine.progress().snapshot());
    }
    std::remove(path.c_str());

    // Fail-fast: a permanent failure cancels the batch.
    EXPECT_THROW(engine.run(jobs, policy), std::runtime_error);
    const exec::ProgressSnapshot progress = engine.progress().snapshot();
    EXPECT_EQ(progress.failedJobs, 1u);
    expectMetricsMatchProgress(registry, progress);
    EXPECT_EQ(registry.counter("engine.batches").value(), 3u);
}

TEST(SimulationEngine, FailureNamesTheJobLabel)
{
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip")};
    std::vector<exec::SimJob> jobs = smallBatch(workloads);
    jobs[1].makeHook = []() -> std::unique_ptr<sim::ExecutionHook> {
        throw std::runtime_error("broken hook");
    };
    jobs[1].hookId = "broken";
    jobs[1].label = "gzip, design row 1";

    exec::SimulationEngine engine(exec::EngineOptions{2, true});
    try {
        engine.run(jobs);
        FAIL() << "expected the batch to fail";
    } catch (const std::runtime_error &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("gzip, design row 1"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("broken hook"), std::string::npos)
            << message;
    }
}

TEST(SimulationEngine, ReplayedStreamsMatchTheStreamedReference)
{
    // Intercepts every integer multiply, so the hooked job's cycles
    // differ from the plain one's over the same stream.
    struct MultHook : sim::ExecutionHook
    {
        bool intercept(const trace::Instruction &inst) override
        {
            return inst.op == trace::OpClass::IntMult;
        }
    };

    const trace::WorkloadProfile a = trace::workloadByName("gzip");
    const trace::WorkloadProfile b = trace::workloadByName("mcf");
    trace::WorkloadProfile a_prime = a; // same name, other stream
    a_prime.takenBias += 0.1;
    ASSERT_EQ(a_prime.name, a.name);
    ASSERT_FALSE(a_prime == a);

    const sim::ProcessorConfig config =
        methodology::uniformConfig(doe::Level::Low);
    const auto make_job = [&config](const trace::WorkloadProfile &w,
                                    std::uint64_t instructions) {
        exec::SimJob job;
        job.workload = &w;
        job.config = config;
        job.instructions = instructions;
        job.label = w.name;
        return job;
    };

    // A, B, A, A', A at another length: one worker hits on the second
    // A, and misses on A' (A's name, another profile) and on the new
    // length.
    std::vector<exec::SimJob> jobs = {
        make_job(a, 3000), make_job(b, 3000), make_job(a, 3000),
        make_job(a_prime, 3000), make_job(a, 4000)};
    // A sampled run on a fresh key stops short of the stream's end
    // (21000 leaves a 1000-instruction tail after two 10000 periods);
    // the full run after it replays that stream.
    exec::SimJob sampled = make_job(a, 21000);
    sampled.sampling.enabled = true;
    jobs.push_back(sampled);
    jobs.push_back(make_job(a, 21000));
    // A hooked run over the stream the previous job left behind.
    exec::SimJob hooked = make_job(a, 21000);
    hooked.makeHook = []() { return std::make_unique<MultHook>(); };
    hooked.hookId = "mult";
    jobs.push_back(hooked);

    exec::SimulationEngine engine(exec::EngineOptions{1, false});
    const std::vector<double> responses = engine.run(jobs);
    ASSERT_EQ(responses.size(), jobs.size());

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const exec::SimJob &job = jobs[i];
        double reference = 0.0;
        if (job.sampling.enabled) {
            trace::SyntheticTraceGenerator gen(*job.workload,
                                               job.instructions);
            sim::SuperscalarCore core(job.config);
            reference =
                sample::runSampled(core, gen, job.sampling)
                    .estimatedCycles;
        } else {
            MultHook hook;
            reference = methodology::simulateOnce(
                *job.workload, job.config, job.instructions,
                job.makeHook ? &hook : nullptr);
        }
        EXPECT_EQ(responses[i], reference) << "job " << i;
    }
    EXPECT_NE(responses[3], responses[0]); // A' is a different stream
    EXPECT_NE(responses[7], responses[6]); // the hook changed timing
}

TEST(SimulationEngine, TimedOutAttemptLeavesNoReplayableStream)
{
    const trace::WorkloadProfile w = trace::workloadByName("twolf");
    exec::SimJob job;
    job.workload = &w;
    job.config = methodology::uniformConfig(doe::Level::High);
    job.instructions = 10000; // past the core's first poll at 4096

    exec::AttemptContext expired;
    expired.deadlineBudget = std::chrono::milliseconds(1);
    expired.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    EXPECT_THROW(exec::SimulationEngine::simulateJob(job, expired),
                 exec::DeadlineExceeded);

    // The same (profile, length) again: the attempt above stopped
    // part-way, so this run must regenerate the whole stream.
    const exec::AttemptContext unbounded;
    EXPECT_EQ(exec::SimulationEngine::simulateJob(job, unbounded).cycles,
              methodology::simulateOnce(w, job.config,
                                        job.instructions));
}

TEST(SimulationEngine, DeadlineMidRunLeavesTheWorkerCoreReusable)
{
    // The thread's core is abandoned mid-run by the deadline; the
    // next job on this thread, with another workload and config,
    // must still match a fresh streamed run.
    const trace::WorkloadProfile big = trace::workloadByName("twolf");
    exec::SimJob interrupted;
    interrupted.workload = &big;
    interrupted.config = methodology::uniformConfig(doe::Level::High);
    interrupted.instructions = 10000; // past the core's first poll

    exec::AttemptContext expired;
    expired.deadlineBudget = std::chrono::milliseconds(1);
    expired.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    EXPECT_THROW(exec::SimulationEngine::simulateJob(interrupted, expired),
                 exec::DeadlineExceeded);

    const trace::WorkloadProfile small = trace::workloadByName("gzip");
    exec::SimJob next;
    next.workload = &small;
    next.config = methodology::uniformConfig(doe::Level::Low);
    next.instructions = 3000;
    next.warmupInstructions = 500;
    const exec::AttemptContext unbounded;
    EXPECT_EQ(exec::SimulationEngine::simulateJob(next, unbounded).cycles,
              methodology::simulateOnce(small, next.config,
                                        next.instructions, nullptr,
                                        next.warmupInstructions));
    EXPECT_EQ(
        exec::SimulationEngine::simulateJob(interrupted, unbounded).cycles,
        methodology::simulateOnce(big, interrupted.config,
                                  interrupted.instructions));
}

TEST(SimulationEngine, ExpiredDeadlineStopsAReplayedCell)
{
    // The two tests above stop a generating stream. Here the second
    // attempt replays the stream the first one recorded, which the
    // core runs as a span with the deadline polled inside its loop.
    const trace::WorkloadProfile w = trace::workloadByName("vortex");
    exec::SimJob job;
    job.workload = &w;
    job.config = methodology::uniformConfig(doe::Level::Low);
    job.instructions = 10000; // past the core's first poll at 4096
    const double reference =
        methodology::simulateOnce(w, job.config, job.instructions);

    const exec::AttemptContext unbounded;
    EXPECT_EQ(exec::SimulationEngine::simulateJob(job, unbounded).cycles,
              reference);

    exec::AttemptContext expired;
    expired.deadlineBudget = std::chrono::milliseconds(1);
    expired.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    EXPECT_THROW(exec::SimulationEngine::simulateJob(job, expired),
                 exec::DeadlineExceeded);

    // The slot survived the abandoned replay.
    EXPECT_EQ(exec::SimulationEngine::simulateJob(job, unbounded).cycles,
              reference);
}

TEST(SimulationEngine, HookedJobLeavesNoHookOnTheWorkerCore)
{
    struct InterceptAll : sim::ExecutionHook
    {
        explicit InterceptAll(unsigned &calls) : _calls(calls) {}
        bool intercept(const trace::Instruction &) override
        {
            ++_calls;
            return true;
        }
        unsigned &_calls;
    };

    unsigned calls = 0;
    const trace::WorkloadProfile w = trace::workloadByName("mcf");
    exec::SimJob job;
    job.workload = &w;
    job.config = methodology::uniformConfig(doe::Level::Low);
    job.instructions = 3000;
    const double reference =
        methodology::simulateOnce(w, job.config, job.instructions);

    const exec::AttemptContext unbounded;
    exec::SimJob hooked = job;
    hooked.makeHook = [&calls]() {
        return std::make_unique<InterceptAll>(calls);
    };
    EXPECT_NE(exec::SimulationEngine::simulateJob(hooked, unbounded).cycles,
              reference);
    EXPECT_EQ(calls, job.instructions);

    // Same workload and config, no hook: the hook died with its job
    // and must not be consulted again.
    EXPECT_EQ(exec::SimulationEngine::simulateJob(job, unbounded).cycles,
              reference);
    EXPECT_EQ(calls, job.instructions);
}

/**
 * BatchResult::ciHalfWidths holds each sampled run's CI in cycles,
 * equal to its job event's ciHalfWidth x streamInstructions, and 0
 * for unsampled and failed jobs. A cache hit and a journal replay
 * hand back the fresh run's figure and summary; so does the sandbox
 * pool.
 */
TEST(SimulationEngine, BatchResultCarriesSampledHalfWidths)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    std::vector<exec::SimJob> jobs;
    for (doe::Level level : {doe::Level::Low, doe::Level::High}) {
        exec::SimJob job;
        job.workload = &w;
        job.config = methodology::uniformConfig(level);
        job.instructions = 8000;
        job.sampling.enabled = true;
        job.sampling.unitInstructions = 250;
        job.sampling.warmupInstructions = 250;
        job.sampling.intervalInstructions = 2000;
        job.label = "sampled";
        jobs.push_back(job);
    }
    jobs.push_back(jobs[0]);
    jobs.back().sampling.enabled = false;
    jobs.back().label = "full";
    jobs.push_back(jobs[1]);
    jobs.back().instructions = 9000;
    jobs.back().label = "bad";
    const exec::SimulateFn simulate = [](const exec::SimJob &job,
                                         const exec::AttemptContext &ctx) {
        if (job.label == "bad")
            throw exec::PermanentFault("poisoned sampled job");
        return exec::SimulationEngine::simulateJob(job, ctx);
    };
    exec::FaultPolicy collect;
    collect.collectFailures = true;

    const std::string path =
        std::string(::testing::TempDir()) + "engine_half_widths";
    std::remove(path.c_str());
    exec::SimulationEngine engine(exec::EngineOptions{2, true, simulate});
    std::vector<exec::JobEvent> events(jobs.size());
    engine.setJobObserver([&events](const exec::JobEvent &event) {
        events[event.jobIndex] = event; // one writer per index
    });
    exec::BatchResult fresh;
    {
        exec::ResultJournal journal(path);
        engine.setJournal(&journal);
        fresh = engine.run(jobs, collect);
        engine.setJournal(nullptr);
    }
    ASSERT_EQ(fresh.ciHalfWidths.size(), jobs.size());
    const std::vector<exec::JobEvent> fresh_events = events;
    for (std::size_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(events[i].result.sample);
        EXPECT_GT(fresh.ciHalfWidths[i], 0.0);
        EXPECT_EQ(fresh.ciHalfWidths[i],
                  events[i].result.sample->ciHalfWidth *
                      static_cast<double>(
                          events[i].result.sample->streamInstructions));
    }
    EXPECT_EQ(fresh.ciHalfWidths[2], 0.0) << "unsampled";
    ASSERT_EQ(fresh.failures.size(), 1u);
    EXPECT_EQ(fresh.failures[0].jobIndex, 3u);
    EXPECT_EQ(fresh.ciHalfWidths[3], 0.0) << "quarantined";

    const exec::BatchResult cached = engine.run(jobs, collect);
    EXPECT_EQ(cached.ciHalfWidths, fresh.ciHalfWidths);
    EXPECT_EQ(engine.progress().snapshot().cacheHits, 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(events[i].source, exec::RunSource::CacheHit);
        EXPECT_EQ(events[i].result, fresh_events[i].result) << i;
    }

    {
        exec::ResultJournal journal(path);
        exec::SimulationEngine resumed(
            exec::EngineOptions{2, true, simulate});
        resumed.setJournal(&journal);
        std::vector<exec::JobEvent> replay_events(jobs.size());
        resumed.setJobObserver(
            [&replay_events](const exec::JobEvent &event) {
                replay_events[event.jobIndex] = event;
            });
        const exec::BatchResult replayed = resumed.run(jobs, collect);
        EXPECT_EQ(replayed.ciHalfWidths, fresh.ciHalfWidths);
        EXPECT_EQ(resumed.progress().snapshot().journalHits, 3u);
        for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_EQ(replay_events[i].source,
                      exec::RunSource::JournalReplay);
            EXPECT_EQ(replay_events[i].result, fresh_events[i].result)
                << i;
        }
    }
    std::remove(path.c_str());

    proc::ProcWorkerPool::Options pool_options;
    pool_options.workers = 2;
    pool_options.simulate = simulate;
    proc::ProcWorkerPool pool(std::move(pool_options));
    exec::SimulationEngine sandboxed(exec::EngineOptions{2, true});
    sandboxed.setSimulate(pool.simulateFn());
    const exec::BatchResult isolated = sandboxed.run(jobs, collect);
    EXPECT_EQ(isolated.ciHalfWidths, fresh.ciHalfWidths);
    ASSERT_EQ(isolated.failures.size(), 1u);
    EXPECT_EQ(isolated.failures[0].jobIndex, 3u);
}

TEST(SimulationEngine, EmptyBatchIsANoop)
{
    exec::SimulationEngine engine;
    EXPECT_TRUE(engine.run({}).empty());
    EXPECT_EQ(engine.progress().snapshot().runsCompleted, 0u);
}
