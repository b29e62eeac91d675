#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "check/campaign_check.hh"
#include "check/rule_ids.hh"
#include "exec/engine.hh"
#include "exec/fault_injection.hh"
#include "exec/journal.hh"
#include "methodology/enhancement_analysis.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/rank_table.hh"
#include "methodology/workflow.hh"
#include "trace/workloads.hh"

namespace check = rigor::check;
namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

namespace
{

std::vector<trace::WorkloadProfile>
twoWorkloads()
{
    return {trace::workloadByName("gzip"),
            trace::workloadByName("mcf")};
}

std::string
journalPath(const std::string &name)
{
    const std::string path =
        std::string(::testing::TempDir()) + name;
    std::remove(path.c_str());
    return path;
}

/** Deterministic stand-in for the simulator (degradation tests
 *  exercise arbitration, not cycle counts). */
double
stubResponse(const exec::AttemptContext &ctx)
{
    return 100000.0 + 37.0 * static_cast<double>(ctx.jobIndex % 88) +
           static_cast<double>(ctx.jobIndex / 88);
}

} // namespace

// ----- Kill and resume: the tentpole end-to-end drill -----

TEST(CampaignResume, KillAndResumeReproducesTable9BitIdentically)
{
    const auto workloads = twoWorkloads();
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 8000;
    opts.campaign.threads = 2;

    // Reference: the uninterrupted campaign (no journal involved).
    const methodology::PbExperimentResult reference =
        methodology::runPbExperiment(workloads, opts);
    const std::string reference_table = methodology::formatRankTable(
        reference.summaries, reference.benchmarks);

    // The campaign that dies: crash drill after 40 journal appends.
    const std::string path = journalPath("campaign_resume");
    {
        exec::ResultJournal journal(path);
        journal.simulateCrashAfter(40);
        methodology::PbExperimentOptions crash_opts = opts;
        crash_opts.campaign.journal = &journal;
        EXPECT_THROW(
            methodology::runPbExperiment(workloads, crash_opts),
            exec::SimulatedCrash)
            << "the crash must propagate unwrapped for the driver";
    }

    // Resume in a "new process": fresh engine and cache, reopened
    // journal. Exactly the 40 journaled runs replay from disk; only
    // the remaining 136 of the 176 jobs are simulated.
    exec::ResultJournal journal(path);
    EXPECT_EQ(journal.loadedRecords(), 40u);
    EXPECT_EQ(journal.tornRecords(), 1u); // the interrupted append
    exec::SimulationEngine engine(exec::EngineOptions{2, true});
    methodology::PbExperimentOptions resume_opts = opts;
    resume_opts.campaign.engine = &engine;
    resume_opts.campaign.journal = &journal;
    const methodology::PbExperimentResult resumed =
        methodology::runPbExperiment(workloads, resume_opts);

    const exec::ProgressSnapshot snap = engine.progress().snapshot();
    EXPECT_EQ(snap.journalHits, 40u);
    EXPECT_EQ(snap.simulatedInstructions, 136u * 8000u)
        << "the resumed run must execute only the remaining jobs";

    // The headline guarantee: the resumed campaign's Table 9 is
    // byte-for-byte the uninterrupted one.
    EXPECT_EQ(resumed.responses, reference.responses);
    EXPECT_EQ(methodology::formatRankTable(resumed.summaries,
                                           resumed.benchmarks),
              reference_table);

    // A second resume replays everything and simulates nothing.
    exec::SimulationEngine replay_engine(exec::EngineOptions{2, true});
    methodology::PbExperimentOptions replay_opts = resume_opts;
    replay_opts.campaign.engine = &replay_engine;
    const methodology::PbExperimentResult replayed =
        methodology::runPbExperiment(workloads, replay_opts);
    EXPECT_EQ(replayed.responses, reference.responses);
    EXPECT_EQ(replay_engine.progress().snapshot().simulatedInstructions,
              0u);
}

// ----- Degradation arbitration through the experiment driver -----

TEST(CampaignDegradation, DropBenchmarkProducesLabeledReducedTable)
{
    const auto workloads = twoWorkloads();

    exec::EngineOptions engine_opts;
    engine_opts.threads = 2;
    engine_opts.simulate = [](const exec::SimJob &job,
                              const exec::AttemptContext &ctx) {
        if (job.label == "mcf, design row 3")
            throw exec::PermanentFault("poisoned cell");
        return stubResponse(ctx);
    };
    exec::SimulationEngine engine(engine_opts);

    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 8000;
    opts.campaign.engine = &engine;
    opts.campaign.faultPolicy.collectFailures = true;
    opts.campaign.degradation = check::DegradationMode::DropBenchmark;

    const methodology::PbExperimentResult result =
        methodology::runPbExperiment(workloads, opts);

    ASSERT_EQ(result.droppedBenchmarks.size(), 1u);
    EXPECT_EQ(result.droppedBenchmarks[0], "mcf");
    ASSERT_EQ(result.benchmarks.size(), 1u);
    EXPECT_EQ(result.benchmarks[0], "gzip");
    EXPECT_EQ(result.responses.size(), 1u);
    EXPECT_EQ(result.effects.size(), 1u);
    for (const rigor::doe::FactorRankSummary &s : result.summaries)
        EXPECT_EQ(s.ranks.size(), 1u)
            << "rank sums must cover only surviving benchmarks";

    EXPECT_TRUE(result.validity.hasRule(
        check::rules::kCampaignCellQuarantined));
    EXPECT_TRUE(result.validity.hasRule(
        check::rules::kCampaignBenchmarkDropped));
    EXPECT_TRUE(result.validity.hasRule(
        check::rules::kCampaignFoldoverPairBroken));

    // The rendered table carries the degradation label.
    const std::string table = methodology::formatRankTable(
        result.summaries, result.benchmarks,
        result.droppedBenchmarks);
    EXPECT_NE(table.find("Dropped (quarantined failures): mcf"),
              std::string::npos)
        << table;
    EXPECT_NE(table.find("1 of 2 benchmarks"), std::string::npos)
        << table;
}

TEST(CampaignDegradation, AbortModeThrowsInsteadOfDegrading)
{
    const auto workloads = twoWorkloads();

    exec::EngineOptions engine_opts;
    engine_opts.threads = 2;
    engine_opts.simulate = [](const exec::SimJob &job,
                              const exec::AttemptContext &ctx) {
        if (job.label == "mcf, design row 3")
            throw exec::PermanentFault("poisoned cell");
        return stubResponse(ctx);
    };
    exec::SimulationEngine engine(engine_opts);

    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 8000;
    opts.campaign.engine = &engine;
    opts.campaign.faultPolicy.collectFailures = true;
    opts.campaign.degradation = check::DegradationMode::Abort;

    try {
        methodology::runPbExperiment(workloads, opts);
        FAIL() << "expected CampaignError";
    } catch (const check::CampaignError &e) {
        EXPECT_TRUE(e.sink().hasRule(
            check::rules::kCampaignBenchmarkIncomplete));
        EXPECT_NE(std::string(e.what()).find("mcf"),
                  std::string::npos);
    }
}

TEST(CampaignDegradation, RetriesHealTransientsBeforeArbitration)
{
    const auto workloads = twoWorkloads();

    // Every job of one benchmark fails once, then succeeds: with a
    // retry budget the campaign completes un-degraded.
    exec::FaultInjector injector;
    injector.addLabelFault("mcf, design row", 1,
                           exec::FaultKind::Transient);
    exec::EngineOptions engine_opts;
    engine_opts.threads = 2;
    engine_opts.simulate = injector.wrap(
        [](const exec::SimJob &, const exec::AttemptContext &ctx) {
            return stubResponse(ctx);
        });
    exec::SimulationEngine engine(engine_opts);

    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 8000;
    opts.campaign.engine = &engine;
    opts.campaign.faultPolicy.maxAttempts = 2;
    opts.campaign.faultPolicy.collectFailures = true;
    opts.campaign.degradation = check::DegradationMode::Abort;

    const methodology::PbExperimentResult result =
        methodology::runPbExperiment(workloads, opts);
    EXPECT_TRUE(result.droppedBenchmarks.empty());
    EXPECT_TRUE(result.validity.diagnostics().empty());
    EXPECT_EQ(result.benchmarks.size(), 2u);
    EXPECT_EQ(injector.transientsRaised(), 88u);
    EXPECT_EQ(engine.progress().snapshot().retries, 88u);
}

// ----- Paired legs: enhancement analysis reconciliation -----

TEST(CampaignDegradation, EnhancementLegsReconcileMismatchedDrops)
{
    const auto workloads = twoWorkloads();

    // The fault hits only the *enhanced* leg (hooked jobs carry a
    // hook id): the base leg keeps both benchmarks, the enhanced leg
    // drops mcf, and the comparison must reconcile to the common
    // survivor set.
    exec::EngineOptions engine_opts;
    engine_opts.threads = 2;
    engine_opts.simulate = [](const exec::SimJob &job,
                              const exec::AttemptContext &ctx) {
        if (!job.hookId.empty() && job.label == "mcf, design row 3")
            throw exec::PermanentFault("enhanced-only fault");
        return stubResponse(ctx);
    };
    exec::SimulationEngine engine(engine_opts);

    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 8000;
    opts.campaign.engine = &engine;
    opts.campaign.faultPolicy.collectFailures = true;
    opts.campaign.degradation = check::DegradationMode::DropBenchmark;

    const methodology::HookFactory noop_factory =
        [](const trace::WorkloadProfile &)
        -> std::unique_ptr<rigor::sim::ExecutionHook> {
        return nullptr;
    };
    const methodology::EnhancementExperimentResult result =
        methodology::runEnhancementExperiment(workloads, opts,
                                              noop_factory, "noop");

    ASSERT_EQ(result.droppedBenchmarks.size(), 1u);
    EXPECT_EQ(result.droppedBenchmarks[0], "mcf");
    EXPECT_TRUE(result.validity.hasRule(
        check::rules::kCampaignPairedDropMismatch));
    // Both legs were re-filtered to the common population.
    EXPECT_EQ(result.base.benchmarks,
              std::vector<std::string>{"gzip"});
    EXPECT_EQ(result.enhanced.benchmarks,
              std::vector<std::string>{"gzip"});
    EXPECT_EQ(result.comparison.shifts.size(),
              result.base.summaries.size());
}

// ----- Workflow: factorial-phase degradation -----

TEST(CampaignDegradation, WorkflowDropsWorkloadFromFactorialAveraging)
{
    const auto workloads = twoWorkloads();

    exec::FaultInjector injector;
    injector.addLabelFault("mcf, factorial cell", 1,
                           exec::FaultKind::Permanent);

    exec::SimulationEngine engine(exec::EngineOptions{
        2, true,
        injector.wrap([](const exec::SimJob &,
                         const exec::AttemptContext &ctx) {
            return stubResponse(ctx);
        })});

    methodology::WorkflowOptions opts;
    opts.instructionsPerRun = 8000;
    opts.warmupInstructions = 0;
    opts.campaign.engine = &engine;
    opts.maxCriticalParameters = 2;
    opts.campaign.faultPolicy.collectFailures = true;
    opts.campaign.degradation = check::DegradationMode::DropBenchmark;

    const methodology::WorkflowResult result =
        methodology::runRecommendedWorkflow(workloads, opts);

    ASSERT_EQ(result.factorialDroppedWorkloads.size(), 1u);
    EXPECT_EQ(result.factorialDroppedWorkloads[0], "mcf");
    EXPECT_TRUE(result.factorialValidity.hasRule(
        check::rules::kCampaignBenchmarkDropped));
    EXPECT_TRUE(result.screening.droppedBenchmarks.empty())
        << "the screen saw no faults";
    EXPECT_NE(result.toString().find(
                  "factorial averaging dropped mcf"),
              std::string::npos)
        << result.toString();
}
