/**
 * @file
 * The unified exec::CampaignOptions API and the observability layer
 * end to end: attaching metrics/trace/manifest sinks must not perturb
 * a single response bit, the manifest must account for every design
 * cell, the metrics must agree exactly with the engine's own progress
 * counters, and one CampaignOptions value must drive all three
 * experiment drivers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "enhance/precompute.hh"
#include "exec/engine.hh"
#include "exec/journal.hh"
#include "methodology/enhancement_analysis.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/rank_table.hh"
#include "methodology/workflow.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "trace/workloads.hh"

namespace
{

namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace obs = rigor::obs;
namespace sim = rigor::sim;
namespace trace = rigor::trace;

std::vector<trace::WorkloadProfile>
twoWorkloads()
{
    return {trace::workloadByName("gzip"),
            trace::workloadByName("mcf")};
}

methodology::PbExperimentOptions
fastOptions()
{
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 8000;
    return opts;
}

std::size_t
countOccurrences(const std::string &haystack,
                 const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

/**
 * The equivalence guarantee: a campaign observed through every sink
 * produces bit-identical responses and an identical rank table to the
 * same campaign run dark.
 */
TEST(CampaignOptions, ObservabilitySinksDoNotPerturbResults)
{
    const auto workloads = twoWorkloads();

    const methodology::PbExperimentResult dark =
        methodology::runPbExperiment(workloads, fastOptions());

    obs::MetricsRegistry metrics;
    obs::TraceWriter trace_writer;
    obs::CampaignManifest manifest;
    methodology::PbExperimentOptions observed = fastOptions();
    observed.campaign.metrics = &metrics;
    observed.campaign.trace = &trace_writer;
    observed.campaign.manifest = &manifest;
    const methodology::PbExperimentResult lit =
        methodology::runPbExperiment(workloads, observed);

    EXPECT_EQ(dark.responses, lit.responses);
    EXPECT_EQ(methodology::rankTableDigest(dark.summaries),
              methodology::rankTableDigest(lit.summaries));
}

TEST(CampaignOptions, ManifestAccountsForEveryDesignCell)
{
    const auto workloads = twoWorkloads();
    obs::CampaignManifest manifest;
    methodology::PbExperimentOptions opts = fastOptions();
    opts.campaign.manifest = &manifest;
    const methodology::PbExperimentResult result =
        methodology::runPbExperiment(workloads, opts);

    const std::string jsonl = manifest.toJsonl();
    // One cell per (benchmark, design row).
    EXPECT_EQ(countOccurrences(jsonl, "{\"type\":\"cell\""),
              workloads.size() * result.design.numRows());
    EXPECT_EQ(countOccurrences(jsonl, "{\"type\":\"campaign\""), 1u);
    EXPECT_EQ(countOccurrences(jsonl, "{\"type\":\"summary\""), 1u);
    // The four driver phases, in campaign order.
    for (const char *phase :
         {"\"name\":\"preflight\"", "\"name\":\"screen\"",
          "\"name\":\"rank\"", "\"name\":\"aggregate\""})
        EXPECT_EQ(countOccurrences(jsonl, phase), 1u) << phase;
    // Design identity of the 43-factor foldover screen.
    EXPECT_NE(jsonl.find("\"experiment\":\"pb_screen\""),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"factors\":43,\"rows\":88"),
              std::string::npos);
    // Every cell simulated on a fresh engine, each exactly once.
    EXPECT_EQ(countOccurrences(jsonl, "\"source\":\"simulated\""),
              workloads.size() * result.design.numRows());
    // The summary carries the digest of the returned rank table.
    EXPECT_NE(
        jsonl.find("\"rank_table_digest\":\"" +
                   methodology::rankTableDigest(result.summaries) +
                   "\""),
        std::string::npos);
}

TEST(CampaignOptions, MetricsAgreeExactlyWithEngineProgress)
{
    const auto workloads = twoWorkloads();
    exec::SimulationEngine engine(exec::EngineOptions{2, true});
    obs::MetricsRegistry metrics;
    methodology::PbExperimentOptions opts = fastOptions();
    opts.campaign.engine = &engine;
    opts.campaign.metrics = &metrics;
    methodology::runPbExperiment(workloads, opts);

    const exec::ProgressSnapshot progress =
        engine.progress().snapshot();
    EXPECT_EQ(progress.runsTotal, workloads.size() * 88u);
    EXPECT_EQ(metrics.counter("engine.runs.completed").value(),
              progress.runsTotal);
    EXPECT_EQ(metrics.counter("engine.runs.completed").value(),
              progress.runsCompleted);
    EXPECT_EQ(metrics.counter("engine.runs.simulated").value(),
              progress.runsCompleted - progress.cacheHits -
                  progress.journalHits);
    EXPECT_EQ(
        metrics.histogram("engine.run.wall_seconds", {}).count(),
        progress.runsCompleted);
}

TEST(CampaignOptions, TraceCoversPhasesAndWorkerJobs)
{
    const auto workloads = twoWorkloads();
    obs::TraceWriter trace_writer;
    methodology::PbExperimentOptions opts = fastOptions();
    opts.campaign.threads = 2;
    opts.campaign.trace = &trace_writer;
    methodology::runPbExperiment(workloads, opts);

    const std::string json = trace_writer.toJson();
    for (const char *phase :
         {"\"name\":\"preflight\"", "\"name\":\"screen\"",
          "\"name\":\"rank\"", "\"name\":\"aggregate\""})
        EXPECT_NE(json.find(phase), std::string::npos) << phase;
    // One job span per run, on worker lanes (tid >= 1).
    EXPECT_EQ(countOccurrences(json, "\"cat\":\"job\""),
              workloads.size() * 88u);
    EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
}

/** One CampaignOptions value configures the PB screen driver, the
 *  recommended workflow, and the enhancement analysis alike. */
TEST(CampaignOptions, OneStructDrivesAllThreeDrivers)
{
    const auto workloads = twoWorkloads();
    exec::SimulationEngine engine(exec::EngineOptions{2, true});
    obs::CampaignManifest manifest;

    exec::CampaignOptions campaign;
    campaign.threads = 2;
    campaign.engine = &engine;
    campaign.manifest = &manifest;

    methodology::PbExperimentOptions pb_opts;
    pb_opts.instructionsPerRun = 4000;
    pb_opts.campaign = campaign;
    const auto pb = methodology::runPbExperiment(workloads, pb_opts);
    EXPECT_EQ(pb.responses.size(), 2u);

    methodology::WorkflowOptions wf_opts;
    wf_opts.base.instructionsPerRun = 4000;
    wf_opts.base.warmupInstructions = 0;
    wf_opts.maxCriticalParameters = 2;
    wf_opts.base.campaign = campaign;
    const auto wf =
        methodology::runRecommendedWorkflow(workloads, wf_opts);
    EXPECT_FALSE(wf.criticalFactors.empty());

    struct AllHook : sim::ExecutionHook
    {
        bool
        intercept(const trace::Instruction &inst) override
        {
            return rigor::enhance::isPrecomputable(inst.op);
        }
    };
    methodology::PbExperimentOptions enh_opts;
    enh_opts.instructionsPerRun = 4000;
    enh_opts.campaign = campaign;
    const auto enh = methodology::runEnhancementExperiment(
        workloads, enh_opts,
        [](const trace::WorkloadProfile &) {
            return std::make_unique<AllHook>();
        },
        "precompute-all");
    EXPECT_FALSE(enh.comparison.shifts.empty());

    const std::string jsonl = manifest.toJsonl();
    // PB screen + workflow screen + factorial + two enhancement legs.
    EXPECT_EQ(countOccurrences(jsonl, "{\"type\":\"campaign\""), 5u);
    EXPECT_NE(jsonl.find("\"experiment\":\"workflow_factorial\""),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"experiment\":\"enhancement_base\""),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"experiment\":\"enhancement_enhanced\""),
              std::string::npos);
    // The shared engine's cache serves the repeated screens; the
    // manifest records where each response came from.
    EXPECT_GT(countOccurrences(jsonl, "\"source\":\"cache\""), 0u);
}

/** Journal replays surface in the manifest's cell provenance. */
TEST(CampaignOptions, JournalReplayAppearsAsCellSource)
{
    const auto workloads = twoWorkloads();
    const std::string path =
        testing::TempDir() + "campaign_options_journal.bin";
    std::remove(path.c_str());
    {
        exec::ResultJournal journal(path);
        methodology::PbExperimentOptions opts = fastOptions();
        opts.campaign.journal = &journal;
        methodology::runPbExperiment(workloads, opts);
    }

    exec::ResultJournal journal(path);
    ASSERT_EQ(journal.loadedRecords(), workloads.size() * 88u);
    obs::CampaignManifest manifest;
    methodology::PbExperimentOptions opts = fastOptions();
    opts.campaign.journal = &journal;
    opts.campaign.manifest = &manifest;
    methodology::runPbExperiment(workloads, opts);
    EXPECT_EQ(countOccurrences(manifest.toJsonl(),
                               "\"source\":\"journal\""),
              workloads.size() * 88u);
    std::remove(path.c_str());
}

} // namespace
