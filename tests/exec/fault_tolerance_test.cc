#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "doe/design_matrix.hh"
#include "exec/engine.hh"
#include "exec/fault_injection.hh"
#include "methodology/parameter_space.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

namespace
{

/** A batch of distinct lightweight jobs for stubbed executors. */
std::vector<exec::SimJob>
stubBatch(const trace::WorkloadProfile &workload, std::size_t count)
{
    std::vector<exec::SimJob> jobs;
    jobs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        exec::SimJob job;
        job.workload = &workload;
        job.config = methodology::uniformConfig(doe::Level::Low);
        job.config.robEntries =
            static_cast<unsigned>(16 + i); // distinct cache keys
        job.instructions = 100;
        job.label = workload.name + ", design row " + std::to_string(i);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** Executor returning a job-index-derived value instantly. */
exec::SimulateFn
instantStub()
{
    return [](const exec::SimJob &, const exec::AttemptContext &ctx) {
        return 1000.0 + static_cast<double>(ctx.jobIndex);
    };
}

} // namespace

// ----- FaultPolicy mechanics -----

TEST(FaultPolicy, AttemptsNeverZero)
{
    exec::FaultPolicy policy;
    policy.maxAttempts = 0;
    EXPECT_EQ(policy.attempts(), 1u);
    policy.maxAttempts = 3;
    EXPECT_EQ(policy.attempts(), 3u);
}

TEST(AttemptContext, CheckDeadlineThrowsOnceExpired)
{
    exec::AttemptContext ctx;
    EXPECT_NO_THROW(ctx.checkDeadline()); // no deadline configured

    ctx.deadlineBudget = std::chrono::milliseconds(5);
    ctx.deadline = std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1);
    EXPECT_TRUE(ctx.expired());
    try {
        ctx.checkDeadline();
        FAIL() << "expected DeadlineExceeded";
    } catch (const exec::DeadlineExceeded &e) {
        EXPECT_NE(std::string(e.what()).find("5 ms"),
                  std::string::npos);
    }
}

TEST(JobFailure, MessageNamesLabelAttemptsAndElapsedTime)
{
    exec::JobFailure failure;
    failure.label = "gzip, design row 17";
    failure.kind = exec::FailureKind::Timeout;
    failure.attempts = 3;
    failure.elapsedSeconds = 0.25;
    failure.message = "attempt deadline of 50 ms exceeded";
    const std::string text = failure.toString();
    EXPECT_NE(text.find("gzip, design row 17"), std::string::npos);
    EXPECT_NE(text.find("timeout"), std::string::npos);
    EXPECT_NE(text.find("3 attempts"), std::string::npos);
    EXPECT_NE(text.find("0.250 s"), std::string::npos);
    EXPECT_NE(text.find("50 ms exceeded"), std::string::npos);
}

// ----- Retry and classification -----

TEST(FaultTolerance, TransientFaultHealedByRetry)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 6);

    std::atomic<unsigned> first_attempts{0};
    exec::EngineOptions opts;
    opts.threads = 2;
    opts.simulate = [&first_attempts](const exec::SimJob &,
                                      const exec::AttemptContext &ctx) {
        if (ctx.attempt == 1) {
            first_attempts.fetch_add(1);
            throw exec::TransientFault("flaky backend");
        }
        return 1000.0 + static_cast<double>(ctx.jobIndex);
    };
    exec::SimulationEngine engine(opts);

    exec::FaultPolicy policy;
    policy.maxAttempts = 2;
    const exec::BatchResult result = engine.run(jobs, policy);

    EXPECT_TRUE(result.complete());
    ASSERT_EQ(result.responses.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(result.responses[i],
                  1000.0 + static_cast<double>(i));
    EXPECT_EQ(first_attempts.load(), jobs.size());
    const exec::ProgressSnapshot snap = engine.progress().snapshot();
    EXPECT_EQ(snap.retries, jobs.size());
    EXPECT_EQ(snap.failedJobs, 0u);
}

TEST(FaultTolerance, PermanentFaultIsNeverRetried)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 3);

    std::atomic<unsigned> attempts_on_victim{0};
    exec::EngineOptions opts;
    opts.threads = 1;
    opts.simulate = [&attempts_on_victim](
                        const exec::SimJob &,
                        const exec::AttemptContext &ctx) {
        if (ctx.jobIndex == 1) {
            attempts_on_victim.fetch_add(1);
            throw std::runtime_error("deterministic bug");
        }
        return 7.0;
    };
    exec::SimulationEngine engine(opts);

    exec::FaultPolicy policy;
    policy.maxAttempts = 5; // would retry transients five times
    policy.collectFailures = true;
    const exec::BatchResult result = engine.run(jobs, policy);

    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(attempts_on_victim.load(), 1u)
        << "a permanent failure must not burn retries";
    EXPECT_EQ(result.failures[0].kind, exec::FailureKind::Permanent);
    EXPECT_EQ(result.failures[0].attempts, 1u);
    EXPECT_TRUE(std::isnan(result.responses[1]));
    EXPECT_EQ(result.responses[0], 7.0);
    EXPECT_EQ(result.responses[2], 7.0);
}

TEST(FaultTolerance, RetriesExhaustedReportsTransientKind)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 1);

    exec::EngineOptions opts;
    opts.threads = 1;
    opts.simulate = [](const exec::SimJob &,
                       const exec::AttemptContext &) -> double {
        throw exec::TransientFault("always flaky");
    };
    exec::SimulationEngine engine(opts);

    exec::FaultPolicy policy;
    policy.maxAttempts = 3;
    policy.collectFailures = true;
    const exec::BatchResult result = engine.run(jobs, policy);

    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].kind, exec::FailureKind::Transient);
    EXPECT_EQ(result.failures[0].attempts, 3u);
    EXPECT_EQ(engine.progress().snapshot().retries, 2u);
}

TEST(FaultTolerance, FailFastMessageCarriesAttemptsAndElapsedTime)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 1);

    exec::EngineOptions opts;
    opts.threads = 1;
    opts.simulate = [](const exec::SimJob &,
                       const exec::AttemptContext &) -> double {
        throw exec::TransientFault("flaky");
    };
    exec::SimulationEngine engine(opts);

    exec::FaultPolicy policy;
    policy.maxAttempts = 2; // fail-fast, but with one retry
    try {
        engine.run(jobs, policy);
        FAIL() << "expected the batch to fail";
    } catch (const std::runtime_error &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("gzip, design row 0"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("after 2 attempts"), std::string::npos)
            << message;
        EXPECT_NE(message.find(" s: flaky"), std::string::npos)
            << message;
    }
}

// ----- Deadline watchdog -----

TEST(FaultTolerance, InjectedHangTripsTheDeadline)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 2);

    exec::FaultInjector injector;
    injector.addFault(0, 1, exec::FaultKind::Hang);
    exec::EngineOptions opts;
    opts.threads = 2;
    opts.simulate = injector.wrap(instantStub());
    exec::SimulationEngine engine(opts);

    exec::FaultPolicy policy;
    policy.maxAttempts = 1;
    policy.attemptDeadline = std::chrono::milliseconds(50);
    policy.collectFailures = true;
    const exec::BatchResult result = engine.run(jobs, policy);

    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].jobIndex, 0u);
    EXPECT_EQ(result.failures[0].kind, exec::FailureKind::Timeout);
    EXPECT_NE(result.failures[0].message.find("deadline"),
              std::string::npos);
    EXPECT_EQ(injector.hangsRaised(), 1u);
    EXPECT_EQ(result.responses[1], 1001.0);
}

TEST(FaultTolerance, HangHealedByRetryWhenSecondAttemptSucceeds)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 1);

    exec::FaultInjector injector;
    injector.addFault(0, 1, exec::FaultKind::Hang);
    exec::EngineOptions opts;
    opts.threads = 1;
    opts.simulate = injector.wrap(instantStub());
    exec::SimulationEngine engine(opts);

    exec::FaultPolicy policy;
    policy.maxAttempts = 2; // a hang is treated as retryable
    policy.attemptDeadline = std::chrono::milliseconds(30);
    const exec::BatchResult result = engine.run(jobs, policy);

    EXPECT_TRUE(result.complete());
    EXPECT_EQ(result.responses[0], 1000.0);
    EXPECT_EQ(engine.progress().snapshot().retries, 1u);
}

TEST(FaultTolerance, RealSimulationTripsTheCooperativeWatchdog)
{
    // A genuinely long simulation (not a stub) against a deadline it
    // cannot meet: the core's deadline poll must convert it
    // into a diagnosable timeout.
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    exec::SimJob job;
    job.workload = &w;
    job.config = methodology::uniformConfig(doe::Level::High);
    job.instructions = 50000000; // far beyond 1 ms of simulation
    job.label = "gzip, wedged run";
    const std::vector<exec::SimJob> jobs = {job};

    exec::SimulationEngine engine(exec::EngineOptions{1, true});
    exec::FaultPolicy policy;
    policy.maxAttempts = 1;
    policy.attemptDeadline = std::chrono::milliseconds(1);
    policy.collectFailures = true;
    const exec::BatchResult result = engine.run(jobs, policy);

    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].kind, exec::FailureKind::Timeout);
    EXPECT_NE(result.failures[0].message.find("deadline"),
              std::string::npos);
}

TEST(FaultTolerance, HangInjectionWithoutDeadlineIsRejected)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 1);

    exec::FaultInjector injector;
    injector.addFault(0, 1, exec::FaultKind::Hang);
    exec::EngineOptions opts;
    opts.threads = 1;
    opts.simulate = injector.wrap(instantStub());
    exec::SimulationEngine engine(opts);

    exec::FaultPolicy policy; // no attemptDeadline: a hang would wedge
    policy.collectFailures = true;
    const exec::BatchResult result = engine.run(jobs, policy);
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_NE(result.failures[0].message.find("no attemptDeadline"),
              std::string::npos);
}

// ----- Collect-all-failures and cancellation -----

TEST(FaultTolerance, CollectModeCompletesEveryRemainingJob)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 16);

    exec::EngineOptions opts;
    opts.threads = 4;
    opts.simulate = [](const exec::SimJob &,
                       const exec::AttemptContext &ctx) -> double {
        if (ctx.jobIndex % 5 == 0)
            throw exec::PermanentFault("cell fault");
        return static_cast<double>(ctx.jobIndex);
    };
    exec::SimulationEngine engine(opts);

    exec::FaultPolicy policy;
    policy.collectFailures = true;
    const exec::BatchResult result = engine.run(jobs, policy);

    ASSERT_EQ(result.failures.size(), 4u); // jobs 0, 5, 10, 15
    for (std::size_t i = 1; i < result.failures.size(); ++i)
        EXPECT_LT(result.failures[i - 1].jobIndex,
                  result.failures[i].jobIndex)
            << "failures must be sorted by job index";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i % 5 == 0)
            EXPECT_TRUE(std::isnan(result.responses[i])) << i;
        else
            EXPECT_EQ(result.responses[i], static_cast<double>(i));
    }
    EXPECT_EQ(engine.progress().snapshot().failedJobs, 4u);
}

TEST(FaultTolerance, FailFastCancelsPendingJobsAndJoinsCleanly)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 64);
    constexpr unsigned kThreads = 4;

    std::atomic<unsigned> invocations{0};
    exec::EngineOptions opts;
    opts.threads = kThreads;
    opts.simulate = [&invocations](const exec::SimJob &,
                                   const exec::AttemptContext &)
        -> double {
        invocations.fetch_add(1);
        throw exec::PermanentFault("everything is broken");
    };
    exec::SimulationEngine engine(opts);

    EXPECT_THROW(engine.run(jobs, exec::FaultPolicy{}),
                 std::runtime_error);
    // Fail-fast: each worker abandons the queue after its first
    // failure, so the 64-job batch makes at most one attempt per
    // worker — pending work is cancelled, not drained.
    EXPECT_LE(invocations.load(), kThreads);

    // The engine is reusable after a cancelled batch (clean join,
    // guard released, queue state discarded).
    exec::EngineOptions ok_opts;
    ok_opts.threads = kThreads;
    ok_opts.simulate = instantStub();
    exec::SimulationEngine second(ok_opts);
    EXPECT_TRUE(second.run(jobs, exec::FaultPolicy{}).complete());
    invocations.store(0);
    EXPECT_THROW(engine.run(jobs, exec::FaultPolicy{}),
                 std::runtime_error);
    EXPECT_LE(invocations.load(), kThreads);
}

TEST(FaultTolerance, InFlightJobsDrainWithoutWritingAfterCancel)
{
    // Worker A fails job 0 instantly (cancelling the batch) while
    // worker B is mid-simulation on job 1; B's completion must not
    // touch batch state in a way tsan would flag, and the batch must
    // still throw A's failure.
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 2);

    std::atomic<bool> victim_started{false};
    exec::EngineOptions opts;
    opts.threads = 2;
    opts.simulate = [&victim_started](const exec::SimJob &,
                                      const exec::AttemptContext &ctx)
        -> double {
        if (ctx.jobIndex == 1) {
            victim_started.store(true);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            return 42.0;
        }
        while (!victim_started.load())
            std::this_thread::yield();
        throw exec::PermanentFault("fail while job 1 in flight");
    };
    exec::SimulationEngine engine(opts);

    try {
        engine.run(jobs, exec::FaultPolicy{});
        FAIL() << "expected the batch to fail";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("design row 0"),
                  std::string::npos);
    }
    EXPECT_EQ(engine.progress().snapshot().failedJobs, 1u);
}

// ----- Reentrancy guard -----

TEST(FaultTolerance, NestedRunOnTheSameEngineIsRejected)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 1);

    exec::SimulationEngine *self = nullptr;
    exec::EngineOptions opts;
    opts.threads = 1;
    opts.simulate = [&self, &jobs](const exec::SimJob &,
                                   const exec::AttemptContext &)
        -> double {
        self->run(jobs); // re-enter the engine mid-batch
        return 0.0;
    };
    exec::SimulationEngine engine(opts);
    self = &engine;

    try {
        engine.run(jobs);
        FAIL() << "expected the nested run to be rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("not reentrant"),
                  std::string::npos)
            << e.what();
    }

    // The guard is released: the engine works again afterwards.
    exec::EngineOptions ok;
    ok.threads = 1;
    ok.simulate = instantStub();
    exec::SimulationEngine fresh(ok);
    EXPECT_EQ(fresh.run(jobs).size(), 1u);
}

TEST(FaultTolerance, ConcurrentRunOnTheSameEngineIsRejected)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 1);

    std::atomic<bool> inside{false};
    std::atomic<bool> release{false};
    exec::EngineOptions opts;
    opts.threads = 1;
    opts.simulate = [&inside, &release](const exec::SimJob &,
                                        const exec::AttemptContext &) {
        inside.store(true);
        while (!release.load())
            std::this_thread::yield();
        return 1.0;
    };
    exec::SimulationEngine engine(opts);

    std::thread first([&]() { engine.run(jobs); });
    while (!inside.load())
        std::this_thread::yield();
    EXPECT_THROW(engine.run(jobs), std::logic_error);
    release.store(true);
    first.join();
    // And once the first batch finished, the engine is free again.
    EXPECT_EQ(engine.run(jobs).size(), 1u);
}

// ----- Fault injector determinism -----

TEST(FaultInjector, PlannedTransientsHealAcrossThreads)
{
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = stubBatch(w, 40);

    // Every third job fails its first two attempts; the third heals
    // it. Four threads retry concurrently.
    exec::FaultInjector injector;
    for (std::size_t job = 0; job < jobs.size(); job += 3)
        for (unsigned attempt = 1; attempt <= 2; ++attempt)
            injector.addFault(job, attempt, exec::FaultKind::Transient);
    EXPECT_EQ(injector.plannedFaults(), 28u);

    exec::FaultPolicy policy;
    policy.maxAttempts = 3;
    exec::EngineOptions opts;
    opts.threads = 4;
    opts.simulate = injector.wrap(instantStub());
    exec::SimulationEngine engine(opts);
    const exec::BatchResult faulted = engine.run(jobs, policy);

    exec::EngineOptions clean_opts = opts;
    clean_opts.simulate = instantStub();
    exec::SimulationEngine clean(clean_opts);
    const exec::BatchResult reference = clean.run(jobs, policy);

    EXPECT_TRUE(faulted.complete());
    EXPECT_EQ(faulted.responses, reference.responses);
    EXPECT_EQ(injector.transientsRaised(), 28u);
    EXPECT_EQ(engine.progress().snapshot().retries, 28u);
}

TEST(FaultInjector, LabelFaultTargetsMatchingJobsOnly)
{
    const trace::WorkloadProfile &gzip = trace::workloadByName("gzip");
    const trace::WorkloadProfile &mcf = trace::workloadByName("mcf");
    std::vector<exec::SimJob> jobs = stubBatch(gzip, 2);
    {
        std::vector<exec::SimJob> more = stubBatch(mcf, 2);
        for (exec::SimJob &job : more)
            jobs.push_back(std::move(job));
    }

    exec::FaultInjector injector;
    injector.addLabelFault("mcf,", 1, exec::FaultKind::Permanent);
    exec::EngineOptions opts;
    opts.threads = 1;
    opts.simulate = injector.wrap(instantStub());
    exec::SimulationEngine engine(opts);

    exec::FaultPolicy policy;
    policy.collectFailures = true;
    const exec::BatchResult result = engine.run(jobs, policy);

    ASSERT_EQ(result.failures.size(), 2u);
    EXPECT_EQ(result.failures[0].jobIndex, 2u);
    EXPECT_EQ(result.failures[1].jobIndex, 3u);
    EXPECT_EQ(injector.permanentsRaised(), 2u);
}

TEST(FaultInjector, RejectsInvalidPlans)
{
    exec::FaultInjector injector;
    EXPECT_THROW(injector.addFault(0, 0, exec::FaultKind::Transient),
                 std::invalid_argument);
    EXPECT_THROW(
        injector.addLabelFault("", 1, exec::FaultKind::Transient),
        std::invalid_argument);
}
