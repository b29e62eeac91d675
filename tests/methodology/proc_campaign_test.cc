#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/campaign_check.hh"
#include "check/rule_ids.hh"
#include "exec/engine.hh"
#include "exec/fault_injection.hh"
#include "exec/journal.hh"
#include "exec/proc/worker_pool.hh"
#include "methodology/enhancement_analysis.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/rank_table.hh"
#include "methodology/workflow.hh"
#include "trace/workloads.hh"

namespace check = rigor::check;
namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

// ASan/TSan shadow mappings are incompatible with RLIMIT_AS, so the
// acceptance drill swaps its OOM alloc-bomb for an abort under
// sanitizer builds (quarantine behavior is identical; only the
// classified kind differs).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RIGOR_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RIGOR_UNDER_SANITIZER 1
#endif
#endif

namespace
{

std::vector<trace::WorkloadProfile>
twoWorkloads()
{
    return {trace::workloadByName("gzip"),
            trace::workloadByName("mcf")};
}

std::vector<trace::WorkloadProfile>
threeWorkloads()
{
    return {trace::workloadByName("gzip"),
            trace::workloadByName("mcf"),
            trace::workloadByName("twolf")};
}

std::string
journalPath(const std::string &name)
{
    const std::string path =
        std::string(::testing::TempDir()) + name;
    std::remove(path.c_str());
    return path;
}

/** A two-worker sandbox pool and the two-thread engine that sends
 *  every attempt to it; the pool outlives the engine's batches. */
struct SandboxedEngine
{
    explicit SandboxedEngine(
        exec::proc::ProcWorkerPool::Options options = {})
        : pool([&options] {
              options.workers = 2;
              return std::move(options);
          }()),
          engine(exec::EngineOptions{2, true, pool.simulateFn()})
    {
    }

    exec::proc::ProcWorkerPool pool;
    exec::SimulationEngine engine;
};

/** Deterministic simulator stand-in (cycle counts don't matter for
 *  isolation plumbing tests, only identity and failure routing). */
double
stubResponse(const exec::AttemptContext &ctx)
{
    return 100000.0 + 37.0 * static_cast<double>(ctx.jobIndex % 88) +
           static_cast<double>(ctx.jobIndex / 88);
}

} // namespace

// ----- The acceptance drill: three process faults, three cells -----

TEST(ProcCampaign, ThreeProcessFaultsQuarantineExactlyThoseCells)
{
    const auto workloads = threeWorkloads();

    // Reference: the same campaign under thread isolation, no faults.
    methodology::PbExperimentOptions ref_opts;
    ref_opts.instructionsPerRun = 2000;
    ref_opts.campaign.threads = 2;
    const methodology::PbExperimentResult reference =
        methodology::runPbExperiment(workloads, ref_opts);

    // The drill: a segfault, an OOM alloc-bomb, and a
    // non-cooperative hang in three distinct (benchmark, design row)
    // cells, executed under process isolation. Row numbers are
    // two-digit so the label substrings match exactly one cell each;
    // twolf sees no faults and must come through untouched.
    exec::FaultInjector injector;
    injector.addLabelFault("gzip, design row 13", 1,
                           exec::FaultKind::Segfault);
#ifdef RIGOR_UNDER_SANITIZER
    injector.addLabelFault("gzip, design row 27", 1,
                           exec::FaultKind::Abort);
#else
    injector.addLabelFault("gzip, design row 27", 1,
                           exec::FaultKind::AllocBomb);
#endif
    injector.addLabelFault("mcf, design row 55", 1,
                           exec::FaultKind::BusyLoop);

    // The injector runs inside the sandboxes, so the faults take
    // down forked workers, not this process.
    exec::proc::ProcWorkerPool::Options pool_opts;
    pool_opts.simulate = injector.wrap();
    // The deadline is generous enough that the alloc-bomb reaches
    // its memory cap (a resource fault) before the watchdog fires.
    pool_opts.hardDeadline = std::chrono::milliseconds(1000);
#ifndef RIGOR_UNDER_SANITIZER
    pool_opts.memLimitMb = 128;
#endif
    SandboxedEngine sandboxed(std::move(pool_opts));
    exec::SimulationEngine &engine = sandboxed.engine;

    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 2000;
    opts.campaign.engine = &engine;
    opts.campaign.faultPolicy.collectFailures = true;
    opts.campaign.degradation = check::DegradationMode::DropBenchmark;

    const methodology::PbExperimentResult result =
        methodology::runPbExperiment(workloads, opts);

    // Exactly the three drilled cells were quarantined: the
    // diagnostic trail names them and nothing else.
    std::vector<std::string> quarantined;
    for (const check::Diagnostic &d : result.validity.diagnostics())
        if (d.ruleId == check::rules::kCampaignCellQuarantined)
            quarantined.push_back(d.context.object);
    std::sort(quarantined.begin(), quarantined.end());
    const std::vector<std::string> expected = {
        "benchmark 'gzip', design row 13",
        "benchmark 'gzip', design row 27",
        "benchmark 'mcf', design row 55",
    };
    EXPECT_EQ(quarantined, expected);

    const exec::ProgressSnapshot snap = engine.progress().snapshot();
    EXPECT_EQ(snap.failedJobs, 3u);
    EXPECT_EQ(snap.runsTotal, 264u);
    EXPECT_EQ(snap.runsCompleted, 264u - 3u);

    // Degradation drops exactly the two faulted benchmarks.
    std::vector<std::string> dropped = result.droppedBenchmarks;
    std::sort(dropped.begin(), dropped.end());
    EXPECT_EQ(dropped, (std::vector<std::string>{"gzip", "mcf"}));
    ASSERT_EQ(result.benchmarks.size(), 1u);
    EXPECT_EQ(result.benchmarks[0], "twolf");

    // The untouched benchmark's 88 responses are bit-identical to
    // the thread-isolation reference: forked execution must not
    // perturb the simulation.
    ASSERT_EQ(reference.benchmarks.size(), 3u);
    ASSERT_EQ(reference.benchmarks[2], "twolf");
    EXPECT_EQ(result.responses[0], reference.responses[2]);
}

// ----- Kill and resume under process isolation -----

TEST(ProcCampaign, KillAndResumeReproducesRankTableUnderProcessMode)
{
    const auto workloads = twoWorkloads();

    SandboxedEngine uninterrupted;
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 2000;
    opts.campaign.engine = &uninterrupted.engine;

    // Reference: the uninterrupted process-isolated campaign.
    const methodology::PbExperimentResult reference =
        methodology::runPbExperiment(workloads, opts);
    const std::string reference_table = methodology::formatRankTable(
        reference.summaries, reference.benchmarks);

    // The campaign that dies mid-flight: the journal's crash drill
    // fires in the *parent* (journaling is parent-side; sandboxes
    // only simulate), after 40 appends.
    const std::string path = journalPath("proc_campaign_resume");
    {
        exec::ResultJournal journal(path);
        journal.simulateCrashAfter(40);
        SandboxedEngine crashing;
        methodology::PbExperimentOptions crash_opts = opts;
        crash_opts.campaign.engine = &crashing.engine;
        crash_opts.campaign.journal = &journal;
        EXPECT_THROW(
            methodology::runPbExperiment(workloads, crash_opts),
            exec::SimulatedCrash);
    }

    // Resume in a "new process": the journal replays the 40 cells,
    // fresh sandboxes simulate the rest, and Table 9 is
    // byte-for-byte the uninterrupted one.
    exec::ResultJournal journal(path);
    EXPECT_EQ(journal.loadedRecords(), 40u);
    EXPECT_EQ(journal.tornRecords(), 1u);
    SandboxedEngine resuming;
    exec::SimulationEngine &engine = resuming.engine;
    methodology::PbExperimentOptions resume_opts = opts;
    resume_opts.campaign.engine = &engine;
    resume_opts.campaign.journal = &journal;
    const methodology::PbExperimentResult resumed =
        methodology::runPbExperiment(workloads, resume_opts);

    EXPECT_EQ(engine.progress().snapshot().journalHits, 40u);
    EXPECT_EQ(resumed.responses, reference.responses);
    EXPECT_EQ(methodology::formatRankTable(resumed.summaries,
                                           resumed.benchmarks),
              reference_table);
}

// ----- Multi-phase drivers share one sandbox pool -----

TEST(ProcCampaign, WorkflowRunsFactorialPhaseUnderProcessIsolation)
{
    const auto workloads = twoWorkloads();

    exec::FaultInjector injector;
    injector.addLabelFault("mcf, factorial cell", 1,
                           exec::FaultKind::Abort);

    // The pool runs the injecting executor inside its sandboxes, so
    // the faults fire inside the forked workers; both phases share
    // the one pool.
    exec::proc::ProcWorkerPool::Options pool_opts;
    pool_opts.simulate = injector.wrap(
        [](const exec::SimJob &, const exec::AttemptContext &ctx) {
            return stubResponse(ctx);
        });
    SandboxedEngine sandboxed(std::move(pool_opts));

    methodology::WorkflowOptions opts;
    opts.base.instructionsPerRun = 8000;
    opts.base.campaign.engine = &sandboxed.engine;
    opts.maxCriticalParameters = 2;
    opts.base.campaign.faultPolicy.collectFailures = true;
    opts.base.campaign.degradation = check::DegradationMode::DropBenchmark;

    const methodology::WorkflowResult result =
        methodology::runRecommendedWorkflow(workloads, opts);

    // Every factorial cell of mcf died with SIGABRT inside a sandbox
    // worker — and only dropped that workload from the averaging.
    ASSERT_EQ(result.factorialDroppedWorkloads.size(), 1u);
    EXPECT_EQ(result.factorialDroppedWorkloads[0], "mcf");
    EXPECT_TRUE(result.factorialValidity.hasRule(
        check::rules::kCampaignBenchmarkDropped));
    EXPECT_TRUE(result.screening.droppedBenchmarks.empty())
        << "the screening phase saw no faults";
}

TEST(ProcCampaign, EnhancementLegsRebuildHooksInsideSandboxes)
{
    const auto workloads = twoWorkloads();

    const methodology::HookFactory noop_factory =
        [](const trace::WorkloadProfile &)
        -> std::unique_ptr<rigor::sim::ExecutionHook> {
        return nullptr;
    };

    // The sandboxes rebuild each hooked job's hook from the pool's
    // factory.
    exec::proc::ProcWorkerPool::Options pool_opts;
    pool_opts.hookFactory = noop_factory;
    pool_opts.simulate = [](const exec::SimJob &job,
                            const exec::AttemptContext &ctx) {
        // Hooked (enhanced) runs are distinguishable, proving the
        // hook request survived the wire into the child.
        const double hooked = job.makeHook ? 500.0 : 0.0;
        return stubResponse(ctx) + hooked;
    };
    SandboxedEngine sandboxed(std::move(pool_opts));

    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 8000;
    opts.campaign.engine = &sandboxed.engine;
    const methodology::EnhancementExperimentResult result =
        methodology::runEnhancementExperiment(workloads, opts,
                                              noop_factory, "noop");

    EXPECT_TRUE(result.droppedBenchmarks.empty());
    EXPECT_EQ(result.base.benchmarks.size(), 2u);
    EXPECT_EQ(result.enhanced.benchmarks.size(), 2u);
    // The enhanced leg's responses carry the hook marker; the base
    // leg's do not.
    EXPECT_EQ(result.base.responses[0][0], stubResponse([] {
                  exec::AttemptContext ctx;
                  ctx.jobIndex = 0;
                  return ctx;
              }()));
    EXPECT_EQ(result.enhanced.responses[0][0],
              result.base.responses[0][0] + 500.0);
}
