#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include <unistd.h>

#include "bool_byte.hh"
#include "exec/engine.hh"
#include "exec/fault_injection.hh"
#include "exec/proc/protocol.hh"
#include "exec/proc/sandbox_worker.hh"
#include "exec/proc/worker_pool.hh"
#include "methodology/parameter_space.hh"
#include "methodology/pb_experiment.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace exec = rigor::exec;
namespace obs = rigor::obs;
namespace proc = rigor::exec::proc;
namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

// Sanitizers change how a sandboxed crash surfaces: ASan intercepts
// SIGSEGV (the child exits with a report instead of dying signaled)
// and its shadow memory is incompatible with RLIMIT_AS. Tests that
// assert the *un-instrumented* kernel-level behavior skip under them;
// the taxonomy itself is still covered by the abort/hang tests.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RIGOR_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RIGOR_UNDER_SANITIZER 1
#endif
#endif

namespace
{

/** A distinct, cacheable sandbox job. */
exec::SimJob
sandboxJob(const trace::WorkloadProfile &workload, std::size_t index,
           const std::string &label)
{
    exec::SimJob job;
    job.workload = &workload;
    job.config = methodology::uniformConfig(doe::Level::Low);
    job.config.robEntries = static_cast<unsigned>(16 + index);
    job.instructions = 100;
    job.label = label;
    return job;
}

exec::AttemptContext
attempt(std::size_t job_index, unsigned attempt_number = 1)
{
    exec::AttemptContext ctx;
    ctx.jobIndex = job_index;
    ctx.attempt = attempt_number;
    return ctx;
}

/**
 * The in-child executor for the drills below, keyed entirely by the
 * job's label (shipped over the wire, so this proves label fidelity
 * too). "ok" labels return a jobIndex-derived value.
 */
exec::SimulateFn
drillStub()
{
    return [](const exec::SimJob &job,
              const exec::AttemptContext &ctx) -> double {
        if (job.label == "throw-transient")
            throw exec::TransientFault("injected transient");
        if (job.label == "throw-deadline")
            throw exec::DeadlineExceeded("injected deadline");
        if (job.label == "throw-resource")
            throw exec::ResourceExhausted("injected resource");
        if (job.label == "throw-permanent")
            throw std::runtime_error("injected permanent");
        if (job.label == "crash-abort")
            std::abort();
        if (job.label == "crash-segv") {
            volatile int *null = nullptr;
            *null = 1; // SIGSEGV
        }
        if (job.label == "busy-loop" ||
            (job.label == "hang-once" && ctx.attempt == 1)) {
            volatile std::uint64_t sink = 0;
            for (;;)
                sink = sink + 1;
        }
        if (job.label == "alloc-bomb") {
            std::vector<std::unique_ptr<char[]>> hoard;
            for (;;) {
                constexpr std::size_t chunk = 16u << 20;
                hoard.push_back(std::make_unique<char[]>(chunk));
                for (std::size_t i = 0; i < chunk; i += 4096)
                    hoard.back()[i] = 1;
            }
        }
        return 1000.0 + static_cast<double>(ctx.jobIndex);
    };
}

proc::ProcWorkerPool::Options
poolOptions(unsigned workers)
{
    proc::ProcWorkerPool::Options options;
    options.workers = workers;
    options.simulate = drillStub();
    // A fast heartbeat keeps watchdog tests quick.
    options.heartbeat = std::chrono::milliseconds(5);
    return options;
}

} // namespace

// ----- Wire protocol -----

TEST(ProcProtocol, JobRequestRoundTripsEveryField)
{
    proc::JobRequest request;
    request.profile = trace::workloadByName("mcf");
    request.config = methodology::uniformConfig(doe::Level::High);
    request.instructions = 12345;
    request.warmupInstructions = 678;
    request.hasHook = true;
    request.label = "mcf, design row 17";
    request.jobIndex = 105;
    request.attempt = 3;
    request.deadlineBudget = std::chrono::milliseconds(250);

    proc::Writer writer;
    request.serialize(writer);
    proc::Reader reader(writer.bytes());
    const proc::JobRequest got = proc::JobRequest::deserialize(reader);
    EXPECT_TRUE(reader.done()) << "payload must be fully consumed";

    EXPECT_EQ(got.profile.name, "mcf");
    EXPECT_EQ(got.profile.isFloatingPoint,
              request.profile.isFloatingPoint);
    EXPECT_DOUBLE_EQ(got.profile.fracLoad, request.profile.fracLoad);
    EXPECT_EQ(got.config.hash(), request.config.hash())
        << "the run-cache identity must survive the wire";
    EXPECT_EQ(got.instructions, 12345u);
    EXPECT_EQ(got.warmupInstructions, 678u);
    EXPECT_TRUE(got.hasHook);
    EXPECT_EQ(got.label, "mcf, design row 17");
    EXPECT_EQ(got.jobIndex, 105u);
    EXPECT_EQ(got.attempt, 3u);
    EXPECT_EQ(got.deadlineBudget.count(), 250);
}

TEST(ProcProtocol, JobResultRoundTripsAndRejectsTruncation)
{
    proc::JobResult result;
    result.status = proc::ResultStatus::Deadline;
    result.cycles = 1234.5;
    result.wallSeconds = 0.125;
    result.message = "attempt deadline of 50 ms exceeded";

    proc::Writer writer;
    result.serialize(writer);
    proc::Reader reader(writer.bytes());
    const proc::JobResult got = proc::JobResult::deserialize(reader);
    EXPECT_EQ(got.status, proc::ResultStatus::Deadline);
    EXPECT_DOUBLE_EQ(got.cycles, 1234.5);
    EXPECT_DOUBLE_EQ(got.wallSeconds, 0.125);
    EXPECT_EQ(got.message, result.message);

    // A payload cut mid-field is a torn frame, not garbage data.
    std::vector<std::byte> torn(writer.bytes().begin(),
                                writer.bytes().end() - 4);
    proc::Reader torn_reader(torn);
    EXPECT_THROW(proc::JobResult::deserialize(torn_reader),
                 proc::ProtocolError);
}

TEST(ProcProtocol, JobRequestRejectsNonCanonicalBools)
{
    proc::JobRequest request;
    request.profile = trace::workloadByName("gzip");
    request.profile.isFloatingPoint = false;
    request.config = methodology::uniformConfig(doe::Level::Low);
    request.label = "gzip, design row 3";

    // Two bare bools and one inside a memcpy'd struct.
    const std::vector<std::function<void(proc::JobRequest &)>> bools = {
        [](proc::JobRequest &r) { r.hasHook = true; },
        [](proc::JobRequest &r) { r.profile.isFloatingPoint = true; },
        [](proc::JobRequest &r) { r.sampling.enabled = true; },
    };
    for (const auto &set_true : bools) {
        const std::vector<std::byte> bytes =
            rigor::test::withBoolByteTwo(request, set_true);
        proc::Reader in(bytes);
        EXPECT_THROW(proc::JobRequest::deserialize(in),
                     proc::ProtocolError);
    }
}

TEST(ProcProtocol, JobResultRejectsNonCanonicalBool)
{
    proc::JobResult result;
    result.status = proc::ResultStatus::Ok;
    result.cycles = 1234.5;
    const std::vector<std::byte> bytes = rigor::test::withBoolByteTwo(
        result, [](proc::JobResult &r) { r.sample.emplace(); });
    proc::Reader in(bytes);
    EXPECT_THROW(proc::JobResult::deserialize(in), proc::ProtocolError);
}

// ----- The pool: happy path -----

TEST(ProcWorkerPool, ExecutesJobsInsideSandboxWorkers)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    proc::ProcWorkerPool pool(poolOptions(2));
    EXPECT_EQ(pool.workers(), 2u);

    for (std::size_t i = 0; i < 8; ++i) {
        const exec::SimJob job = sandboxJob(w, i, "ok");
        EXPECT_DOUBLE_EQ(pool.execute(job, attempt(i)).cycles,
                         1000.0 + static_cast<double>(i));
    }
    EXPECT_EQ(pool.respawns(), 0u);
    EXPECT_EQ(pool.sigkills(), 0u);
    EXPECT_EQ(pool.oomKills(), 0u);
}

// ----- The attempt codec across the process boundary -----

namespace
{

/** The out-of-process executors the taxonomy runs on. */
enum class Executor
{
    Pool,
};

void
PrintTo(Executor, std::ostream *out)
{
    *out << "Pool";
}

/** A one-worker sandbox pool whose worker runs drillStub(). */
class AttemptTaxonomy : public ::testing::TestWithParam<Executor>
{
  protected:
    void SetUp() override
    {
        _pool = std::make_unique<proc::ProcWorkerPool>(poolOptions(1));
        execute = _pool->simulateFn();
    }

    /** Worker incidents: pool respawns. */
    std::uint64_t incidents() const { return _pool->respawns(); }

    /** Expect @p job to fail as exactly @p Fault with @p message. */
    template <typename Fault>
    void expectFault(const exec::SimJob &job,
                     const exec::AttemptContext &ctx,
                     const std::string &message)
    {
        try {
            execute(job, ctx);
            ADD_FAILURE() << "'" << job.label << "' did not throw";
        } catch (const Fault &fault) {
            EXPECT_TRUE(typeid(fault) == typeid(Fault))
                << "'" << job.label << "' threw " << typeid(fault).name();
            EXPECT_EQ(std::string(fault.what()), message);
        }
    }

    exec::SimulateFn execute;

  private:
    std::unique_ptr<proc::ProcWorkerPool> _pool;
};

} // namespace

TEST_P(AttemptTaxonomy, ChildThrownFaultsKeepTheirTaxonomy)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    expectFault<exec::TransientFault>(
        sandboxJob(w, 0, "throw-transient"), attempt(0),
        "injected transient");
    expectFault<exec::DeadlineExceeded>(
        sandboxJob(w, 1, "throw-deadline"), attempt(1),
        "injected deadline");
    expectFault<exec::ResourceExhausted>(
        sandboxJob(w, 2, "throw-resource"), attempt(2),
        "injected resource");
    expectFault<exec::PermanentFault>(
        sandboxJob(w, 3, "throw-permanent"), attempt(3),
        "injected permanent");
    // Clean throws never cost a worker: no respawns.
    EXPECT_EQ(incidents(), 0u);
    EXPECT_DOUBLE_EQ(execute(sandboxJob(w, 4, "ok"), attempt(4)).cycles,
                     1004.0);
}

INSTANTIATE_TEST_SUITE_P(
    Executors, AttemptTaxonomy,
    ::testing::Values(Executor::Pool),
    [](const ::testing::TestParamInfo<Executor> &info) {
        return ::testing::PrintToString(info.param);
    });

TEST(ProcSandbox, HookedRequestWithoutAFactoryFailsPermanent)
{
    // A hooked request the child cannot rebuild fails, instead of
    // silently running unhooked.
    proc::JobRequest request;
    request.profile = trace::workloadByName("gzip");
    request.config = methodology::uniformConfig(doe::Level::Low);
    request.instructions = 100;
    request.hasHook = true;
    request.label = "gzip, design row 3";

    int request_pipe[2];
    int result_pipe[2];
    ASSERT_EQ(::pipe(request_pipe), 0);
    ASSERT_EQ(::pipe(result_pipe), 0);
    proc::Writer out;
    request.serialize(out);
    proc::writeFrame(request_pipe[1], out.bytes());
    ::close(request_pipe[1]); // EOF after one request: the loop ends

    EXPECT_EQ(proc::runSandboxChild(request_pipe[0], result_pipe[1],
                                    proc::SandboxContext{}),
              0);
    ::close(request_pipe[0]);
    ::close(result_pipe[1]);

    std::vector<std::byte> frame;
    ASSERT_TRUE(proc::readFrame(result_pipe[0], frame));
    ::close(result_pipe[0]);
    proc::Reader in(frame);
    const proc::JobResult result = proc::JobResult::deserialize(in);
    EXPECT_EQ(result.status, proc::ResultStatus::Permanent);
    EXPECT_NE(result.message.find("hook factory"), std::string::npos)
        << result.message;
    EXPECT_NE(result.message.find("gzip, design row 3"),
              std::string::npos)
        << result.message;
}

TEST(ProcWorkerPool, UnknownPredictorKindFailsPermanent)
{
    // A config is memcpy'd off the wire, so its enum fields can hold
    // any value. Kind 1 named a predictor that no longer exists; the
    // child's config check must refuse it rather than simulate.
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    proc::ProcWorkerPool::Options options;
    options.workers = 1;
    proc::ProcWorkerPool pool(options);

    exec::SimJob job = sandboxJob(w, 0, "gzip, design row 1");
    job.config.bpred = static_cast<rigor::sim::BranchPredictorKind>(1);
    try {
        pool.execute(job, attempt(0));
        FAIL() << "expected PermanentFault";
    } catch (const exec::PermanentFault &e) {
        EXPECT_NE(std::string(e.what()).find("bpred"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(pool.respawns(), 0u);
    EXPECT_GT(pool.execute(sandboxJob(w, 1, "ok"), attempt(1)).cycles,
              0.0);
}

// ----- Crash classification -----

TEST(ProcWorkerPool, AbortClassifiedAsPermanentWithRunKey)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    proc::ProcWorkerPool pool(poolOptions(1));

    const exec::SimJob job = sandboxJob(w, 0, "crash-abort");
    try {
        pool.execute(job, attempt(0));
        FAIL() << "expected PermanentFault";
    } catch (const exec::PermanentFault &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("SIGABRT"), std::string::npos) << what;
        EXPECT_NE(what.find("crash-abort"), std::string::npos) << what;
        EXPECT_NE(what.find("run key"), std::string::npos)
            << "the quarantined cell must be traceable: " << what;
    }
    // The dead worker was replaced before the fault was thrown:
    // the pool still serves.
    EXPECT_EQ(pool.respawns(), 1u);
    EXPECT_DOUBLE_EQ(pool.execute(sandboxJob(w, 1, "ok"), attempt(1)).cycles,
                     1001.0);
}

TEST(ProcWorkerPool, SegfaultClassifiedAsPermanentCrash)
{
#ifdef RIGOR_UNDER_SANITIZER
    GTEST_SKIP() << "sanitizers intercept SIGSEGV in the child";
#else
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    proc::ProcWorkerPool pool(poolOptions(1));

    try {
        pool.execute(sandboxJob(w, 0, "crash-segv"), attempt(0));
        FAIL() << "expected PermanentFault";
    } catch (const exec::PermanentFault &e) {
        EXPECT_NE(std::string(e.what()).find("SIGSEGV"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(pool.respawns(), 1u);
    EXPECT_DOUBLE_EQ(pool.execute(sandboxJob(w, 1, "ok"), attempt(1)).cycles,
                     1001.0);
#endif
}

TEST(ProcWorkerPool, WatchdogSigkillsNonCooperativeHang)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    proc::ProcWorkerPool::Options options = poolOptions(1);
    options.hardDeadline = std::chrono::milliseconds(100);
    proc::ProcWorkerPool pool(std::move(options));

    try {
        pool.execute(sandboxJob(w, 0, "busy-loop"), attempt(0));
        FAIL() << "expected DeadlineExceeded";
    } catch (const exec::DeadlineExceeded &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("hard deadline"), std::string::npos)
            << what;
        EXPECT_NE(what.find("SIGKILL"), std::string::npos) << what;
    }
    EXPECT_EQ(pool.sigkills(), 1u);
    EXPECT_EQ(pool.respawns(), 1u);
    EXPECT_EQ(pool.oomKills(), 0u)
        << "a watchdog SIGKILL must not be misread as an OOM kill";
    EXPECT_DOUBLE_EQ(pool.execute(sandboxJob(w, 1, "ok"), attempt(1)).cycles,
                     1001.0);
}

TEST(ProcWorkerPool, MemoryLimitClassifiedAsResourceExhausted)
{
#ifdef RIGOR_UNDER_SANITIZER
    GTEST_SKIP() << "RLIMIT_AS is incompatible with sanitizer shadow";
#else
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    proc::ProcWorkerPool::Options options = poolOptions(1);
    options.memLimitMb = 512;
    proc::ProcWorkerPool pool(std::move(options));

    try {
        pool.execute(sandboxJob(w, 0, "alloc-bomb"), attempt(0));
        FAIL() << "expected ResourceExhausted";
    } catch (const exec::ResourceExhausted &e) {
        EXPECT_NE(std::string(e.what()).find("memory limit"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(pool.oomKills(), 1u);
    EXPECT_EQ(pool.respawns(), 1u);
    EXPECT_DOUBLE_EQ(pool.execute(sandboxJob(w, 1, "ok"), attempt(1)).cycles,
                     1001.0);
#endif
}

TEST(ProcWorkerPool, RecordedTraceFitsUnderTheDrillMemoryLimit)
{
#ifdef RIGOR_UNDER_SANITIZER
    GTEST_SKIP() << "RLIMIT_AS is incompatible with sanitizer shadow";
#else
    // A sandbox keeps the last stream it generated (up to 32 MiB) for
    // replay, and a core whose caches are sized for the largest
    // geometry it has run; both count against RLIMIT_AS. After a
    // max-geometry row (8192 KB L2 of 64 B blocks), a stream just
    // under the budget must still record, then replay, under the
    // 128 MiB cap the campaign crash drill uses.
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    proc::ProcWorkerPool::Options options;
    options.workers = 1;
    options.memLimitMb = 128;
    proc::ProcWorkerPool pool(std::move(options));

    exec::SimJob widest;
    widest.workload = &w;
    widest.config = methodology::uniformConfig(doe::Level::High);
    methodology::applyFactorLevel(widest.config,
                                  methodology::Factor::L2BlockSize,
                                  doe::Level::Low);
    ASSERT_EQ(widest.config.l2.sizeBytes, 8192u * 1024u);
    ASSERT_EQ(widest.config.l2.blockBytes, 64u);
    widest.instructions = 2000;
    widest.label = "gzip at the widest cache geometry";
    EXPECT_EQ(pool.execute(widest, attempt(0)).cycles,
              methodology::simulateOnce(w, widest.config,
                                        widest.instructions));

    exec::SimJob job;
    job.workload = &w;
    job.config = methodology::uniformConfig(doe::Level::Low);
    job.instructions = 550000; // 30.8 MB of recorded trace
    job.label = "gzip near the trace budget";
    const double reference =
        methodology::simulateOnce(w, job.config, job.instructions);
    EXPECT_EQ(pool.execute(job, attempt(1)).cycles, reference); // records
    EXPECT_EQ(pool.execute(job, attempt(2)).cycles, reference); // replays
    EXPECT_EQ(pool.oomKills(), 0u);
    EXPECT_EQ(pool.respawns(), 0u);
#endif
}

// ----- Through the engine: retries heal, quarantine is per-cell -----

TEST(ProcWorkerPool, EngineRetryHealsTrueHangViaWatchdog)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    proc::ProcWorkerPool::Options options = poolOptions(1);
    options.hardDeadline = std::chrono::milliseconds(100);
    proc::ProcWorkerPool pool(std::move(options));

    exec::EngineOptions engine_opts;
    engine_opts.threads = 1;
    engine_opts.simulate = pool.simulateFn();
    exec::SimulationEngine engine(engine_opts);

    // The job hangs non-cooperatively on attempt 1 only: the watchdog
    // converts the hang into a retryable timeout and attempt 2 heals.
    std::vector<exec::SimJob> jobs;
    jobs.push_back(sandboxJob(w, 0, "hang-once"));
    exec::FaultPolicy policy;
    policy.maxAttempts = 2;
    const exec::BatchResult batch = engine.run(jobs, policy);
    ASSERT_TRUE(batch.complete());
    EXPECT_DOUBLE_EQ(batch.responses[0], 1000.0);
    EXPECT_EQ(pool.sigkills(), 1u);
    EXPECT_EQ(engine.progress().snapshot().retries, 1u);
}

TEST(ProcWorkerPool, EngineQuarantinesOnlyTheCrashedCell)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    proc::ProcWorkerPool pool(poolOptions(2));

    exec::EngineOptions engine_opts;
    engine_opts.threads = 2;
    engine_opts.simulate = pool.simulateFn();
    exec::SimulationEngine engine(engine_opts);

    std::vector<exec::SimJob> jobs;
    for (std::size_t i = 0; i < 8; ++i)
        jobs.push_back(
            sandboxJob(w, i, i == 3 ? "crash-abort" : "ok"));

    exec::FaultPolicy policy;
    policy.collectFailures = true;
    const exec::BatchResult batch = engine.run(jobs, policy);

    ASSERT_EQ(batch.failures.size(), 1u);
    EXPECT_EQ(batch.failures[0].jobIndex, 3u);
    EXPECT_EQ(batch.failures[0].kind, exec::FailureKind::Permanent);
    for (std::size_t i = 0; i < 8; ++i) {
        if (i == 3) {
            EXPECT_TRUE(std::isnan(batch.responses[i]));
        } else {
            EXPECT_DOUBLE_EQ(batch.responses[i],
                             1000.0 + static_cast<double>(i));
        }
    }
}

TEST(ProcWorkerPool, InjectedProcessDrillsFireInsideTheSandbox)
{
    // The campaign wires FaultInjector *around* the real executor and
    // the pool captures that wrapper as the in-child executor — so a
    // process-level drill takes down a sandbox worker, not the test.
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    exec::FaultInjector injector;
    injector.addLabelFault("drill-me", 1, exec::FaultKind::Abort);

    proc::ProcWorkerPool::Options options;
    options.workers = 1;
    options.heartbeat = std::chrono::milliseconds(5);
    options.simulate = injector.wrap(
        [](const exec::SimJob &, const exec::AttemptContext &ctx) {
            return 2000.0 + static_cast<double>(ctx.jobIndex);
        });
    proc::ProcWorkerPool pool(std::move(options));

    EXPECT_THROW(pool.execute(sandboxJob(w, 0, "drill-me"), attempt(0)),
                 exec::PermanentFault);
    EXPECT_EQ(pool.respawns(), 1u);
    EXPECT_DOUBLE_EQ(pool.execute(sandboxJob(w, 1, "ok"), attempt(1)).cycles,
                     2001.0);
}

// ----- Observability: counters and worker-lifetime spans -----

TEST(ProcWorkerPool, SupervisionCountersLandInTheMetricsRegistry)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    proc::ProcWorkerPool::Options options = poolOptions(1);
    options.hardDeadline = std::chrono::milliseconds(100);
    proc::ProcWorkerPool pool(std::move(options));

    obs::MetricsRegistry metrics;
    pool.setMetrics(&metrics);

    EXPECT_THROW(pool.execute(sandboxJob(w, 0, "crash-abort"),
                              attempt(0)),
                 exec::PermanentFault);
    EXPECT_THROW(pool.execute(sandboxJob(w, 1, "busy-loop"),
                              attempt(1)),
                 exec::DeadlineExceeded);

    EXPECT_EQ(metrics.counter("engine.proc.respawns").value(), 2u);
    EXPECT_EQ(metrics.counter("engine.proc.sigkills").value(), 1u);
    EXPECT_EQ(metrics.counter("engine.proc.oom_kills").value(), 0u);
}

TEST(ProcWorkerPool, WorkerLifetimeSpansAreGoldenUnderSteppedClock)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");

    // Stepping clock: every tick advances 100 µs, so the spans'
    // timestamps are fully determined by the call sequence —
    //   tick 1 (100): setTraceWriter backfills the worker's spawnTs
    //   tick 2 (200): crash closes the first lifetime span
    //   tick 3 (300): the respawn stamps the replacement's spawnTs
    //   tick 4 (400): pool shutdown closes the replacement's span
    std::uint64_t t = 0;
    obs::TraceWriter golden([&t] { return t += 100; });
    {
        proc::ProcWorkerPool pool(poolOptions(1));
        pool.setTraceWriter(&golden);
        EXPECT_DOUBLE_EQ(
            pool.execute(sandboxJob(w, 0, "ok"), attempt(0)).cycles, 1000.0);
        EXPECT_THROW(pool.execute(sandboxJob(w, 1, "crash-abort"),
                                  attempt(1)),
                     exec::PermanentFault);
    }

    ASSERT_EQ(golden.eventCount(), 2u);
    const std::string json = golden.toJson();
    // First lifetime: served one job, died crashing on the second.
    EXPECT_NE(json.find("\"name\":\"proc.worker\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ts\":100,\"dur\":100"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"jobs\":\"1\""), std::string::npos) << json;
    EXPECT_NE(json.find("signal:SIGABRT"), std::string::npos) << json;
    // Replacement lifetime: idle until the orderly shutdown.
    EXPECT_NE(json.find("\"ts\":300,\"dur\":100"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"jobs\":\"0\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"exit\":\"shutdown\""), std::string::npos)
        << json;
}
