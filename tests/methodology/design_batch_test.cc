/**
 * @file
 * What every design batch hands back, pinned at the driver surface:
 * the order of the manifest records each multi-batch driver writes
 * (campaign, phases, collapsed cell runs, summaries), and the text of
 * the error a fail-fast batch raises in the screen and in the
 * workflow's step-3 factorial.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/engine.hh"
#include "methodology/adaptive_sampling.hh"
#include "methodology/enhancement_analysis.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/rank_stability.hh"
#include "methodology/workflow.hh"
#include "obs/manifest.hh"
#include "trace/workloads.hh"

namespace
{

namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace obs = rigor::obs;
namespace trace = rigor::trace;

std::vector<trace::WorkloadProfile>
twoWorkloads()
{
    return {trace::workloadByName("gzip"),
            trace::workloadByName("mcf")};
}

/** The string value of @p key in one JSONL record ("" if absent). */
std::string
field(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return "";
    const std::size_t begin = at + needle.size();
    return line.substr(begin, line.find('"', begin) - begin);
}

/**
 * The manifest as "type name" entries in record order: a campaign
 * carries its experiment, a phase its name, and each run of
 * consecutive cells collapses to "cell xN".
 */
std::vector<std::string>
recordSequence(const obs::CampaignManifest &manifest)
{
    std::vector<std::string> sequence;
    std::size_t cells = 0;
    const auto flush_cells = [&] {
        if (cells != 0)
            sequence.push_back("cell x" + std::to_string(cells));
        cells = 0;
    };
    std::istringstream lines(manifest.toJsonl());
    for (std::string line; std::getline(lines, line);) {
        const std::string type = field(line, "type");
        if (type == "cell") {
            ++cells;
            continue;
        }
        flush_cells();
        if (type == "campaign")
            sequence.push_back("campaign " + field(line, "experiment"));
        else if (type == "phase")
            sequence.push_back("phase " + field(line, "name"));
        else
            sequence.push_back(type);
    }
    flush_cells();
    return sequence;
}

/** The screen's records for one campaign named @p experiment over
 *  @p cells cells. */
std::vector<std::string>
screenRecords(const std::string &experiment, std::size_t cells)
{
    return {"campaign " + experiment, "phase preflight",
            "cell x" + std::to_string(cells), "phase screen",
            "phase rank", "phase aggregate", "summary"};
}

void
append(std::vector<std::string> &to,
       const std::vector<std::string> &records)
{
    to.insert(to.end(), records.begin(), records.end());
}

} // namespace

TEST(DesignBatch, WorkflowManifestOrder)
{
    obs::CampaignManifest manifest;
    methodology::WorkflowOptions opts;
    opts.base.instructionsPerRun = 4000;
    opts.maxCriticalParameters = 2;
    opts.base.campaign.threads = 2;
    opts.base.campaign.manifest = &manifest;
    const methodology::WorkflowResult result =
        methodology::runRecommendedWorkflow(twoWorkloads(), opts);
    const std::size_t factorial_cells =
        twoWorkloads().size() << result.criticalFactors.size();

    std::vector<std::string> expected = screenRecords("pb_screen", 176);
    append(expected, {"campaign workflow_factorial",
                      "phase factorial_preflight",
                      "cell x" + std::to_string(factorial_cells),
                      "phase factorial", "phase anova", "summary"});
    EXPECT_EQ(recordSequence(manifest), expected);
}

TEST(DesignBatch, EnhancementManifestOrder)
{
    obs::CampaignManifest manifest;
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 2000;
    opts.campaign.threads = 2;
    opts.campaign.manifest = &manifest;
    methodology::runEnhancementExperiment(
        twoWorkloads(), opts,
        [](const trace::WorkloadProfile &)
            -> std::unique_ptr<rigor::sim::ExecutionHook> {
            return nullptr;
        },
        "noop");

    std::vector<std::string> expected =
        screenRecords("enhancement_base", 176);
    expected.push_back("phase base_leg");
    append(expected, screenRecords("enhancement_enhanced", 176));
    expected.push_back("phase enhanced_leg");
    EXPECT_EQ(recordSequence(manifest), expected);
}

TEST(DesignBatch, ReplicatedManifestOrder)
{
    obs::CampaignManifest manifest;
    methodology::RankStabilityOptions options;
    options.base.instructionsPerRun = 2000;
    options.base.campaign.threads = 2;
    options.base.campaign.manifest = &manifest;
    options.replication.replicates = 3;
    options.replication.bootstrap.iterations = 200;
    options.base.campaign.skipPreflight = true;
    methodology::runReplicatedPbExperiment(twoWorkloads(), options);

    // skipPreflight drops the preflight phase of every replicate.
    std::vector<std::string> expected;
    for (const std::string experiment :
         {"pb_screen", "pb_screen/replicate-1",
          "pb_screen/replicate-2"})
        append(expected,
               {"campaign " + experiment, "cell x176", "phase screen",
                "phase rank", "phase aggregate", "summary"});
    expected.push_back("stability");
    EXPECT_EQ(recordSequence(manifest), expected);
}

TEST(DesignBatch, AdaptiveManifestOrder)
{
    // A coarse sampled screen with a generous ambiguity threshold:
    // round 0 leaves ambiguous pairs in both benchmarks, so the one
    // refinement round re-runs both as its own campaign.
    obs::CampaignManifest manifest;
    methodology::AdaptiveSamplingOptions options;
    options.maxRounds = 2;
    options.ambiguityFactor = 4.0;
    options.base.instructionsPerRun = 20000;
    exec::CampaignOptions &campaign = options.base.campaign;
    campaign.threads = 2;
    campaign.manifest = &manifest;
    campaign.sampling.enabled = true;
    campaign.sampling.unitInstructions = 250;
    campaign.sampling.warmupInstructions = 250;
    campaign.sampling.intervalInstructions = 5000;
    const methodology::AdaptiveSamplingResult run =
        methodology::runAdaptivePbExperiment(twoWorkloads(), options);
    ASSERT_EQ(run.rounds.size(), 2u);
    ASSERT_EQ(run.rounds[1].simulatedBenchmarks.size(), 2u);

    std::vector<std::string> expected = screenRecords("pb_screen", 176);
    append(expected, screenRecords("pb_screen/refine-1", 176));
    EXPECT_EQ(recordSequence(manifest), expected);
}

TEST(DesignBatch, ScreenFailFastNamesTheExperiment)
{
    exec::EngineOptions engine_opts;
    engine_opts.threads = 2;
    engine_opts.simulate = [](const exec::SimJob &job,
                              const exec::AttemptContext &) -> double {
        if (job.label == "mcf, design row 5")
            throw exec::PermanentFault("poisoned cell");
        return 1000.0;
    };
    exec::SimulationEngine engine(engine_opts);
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 2000;
    opts.campaign.engine = &engine;
    try {
        methodology::runPbExperiment(twoWorkloads(), opts);
        FAIL() << "expected the screen to fail fast";
    } catch (const std::runtime_error &e) {
        // The engine's message (less its wall time) behind the
        // screen's prefix.
        const std::string message = e.what();
        EXPECT_EQ(message.rfind("runPbExperiment: simulation failed: "
                                "SimulationEngine: job 'mcf, design "
                                "row 5' failed (permanent) after 1 "
                                "attempt in ",
                                0),
                  0u)
            << message;
        EXPECT_NE(message.find(" s: poisoned cell"), std::string::npos)
            << message;
    }
}

TEST(DesignBatch, FactorialFailFastNamesTheCell)
{
    // The real simulator for the screen, a permanent fault for every
    // factorial cell of mcf.
    exec::EngineOptions engine_opts;
    engine_opts.threads = 2;
    engine_opts.simulate = [](const exec::SimJob &job,
                              const exec::AttemptContext &ctx) {
        if (job.label.rfind("mcf, factorial cell", 0) == 0)
            throw exec::PermanentFault("poisoned factorial cell");
        return exec::SimulationEngine::simulateJob(job, ctx);
    };
    exec::SimulationEngine engine(engine_opts);
    methodology::WorkflowOptions opts;
    opts.base.instructionsPerRun = 4000;
    opts.maxCriticalParameters = 2;
    opts.base.campaign.engine = &engine;
    try {
        methodology::runRecommendedWorkflow(twoWorkloads(), opts);
        FAIL() << "expected the factorial to fail fast";
    } catch (const std::runtime_error &e) {
        // The engine's message behind the factorial's prefix.
        const std::string message = e.what();
        EXPECT_EQ(message.rfind("runRecommendedWorkflow (step 3): "
                                "simulation failed: "
                                "SimulationEngine: job 'mcf, "
                                "factorial cell ",
                                0),
                  0u)
            << message;
        EXPECT_NE(message.find("poisoned factorial cell"),
                  std::string::npos)
            << message;
    }
}
