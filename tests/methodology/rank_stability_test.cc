#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "check/diagnostic.hh"
#include "check/preflight.hh"
#include "check/rule_ids.hh"
#include "check/stability_check.hh"
#include "exec/engine.hh"
#include "exec/journal.hh"
#include "methodology/parameter_space.hh"
#include "methodology/rank_stability.hh"
#include "trace/workloads.hh"

namespace check = rigor::check;
namespace methodology = rigor::methodology;
namespace rules = rigor::check::rules;
namespace stats = rigor::stats;
namespace trace = rigor::trace;

namespace
{

const std::vector<std::string> kBench = {"b0"};
const std::vector<std::string> kTwoFactors = {"A", "B"};

stats::BootstrapOptions
fastBootstrap()
{
    stats::BootstrapOptions bootstrap;
    bootstrap.iterations = 2000;
    bootstrap.seed = 11;
    return bootstrap;
}

} // namespace

TEST(AnalyzeRankStability, IdenticalReplicatesAreCertain)
{
    // Three identical replicates: every resample reproduces the same
    // effects, so intervals are zero-width and nothing ever flips.
    const std::vector<std::vector<double>> replicate = {{10.0, 2.0}};
    const std::vector<std::vector<std::vector<double>>> effects = {
        replicate, replicate, replicate};
    const methodology::RankStabilityReport report =
        methodology::analyzeRankStability(effects, kBench,
                                          kTwoFactors,
                                          fastBootstrap(), 2);
    ASSERT_EQ(report.factors.size(), 2u);
    EXPECT_EQ(report.factors[0].name, "A");
    EXPECT_EQ(report.factors[0].pointRank, 1u);
    EXPECT_DOUBLE_EQ(report.factors[0].rank.lower, 1.0);
    EXPECT_DOUBLE_EQ(report.factors[0].rank.upper, 1.0);
    EXPECT_EQ(report.factors[1].name, "B");
    EXPECT_DOUBLE_EQ(report.factors[1].rank.lower, 2.0);
    EXPECT_DOUBLE_EQ(report.factors[1].rank.upper, 2.0);
    EXPECT_DOUBLE_EQ(report.flipProbability[0][1], 0.0);
}

TEST(AnalyzeRankStability, HandComputedFlipProbability)
{
    // Two replicates that disagree on the order of A and B. A
    // bootstrap resample of {0, 1} with replacement lands on (0,0),
    // (0,1), (1,0), (1,1) with probability 1/4 each; only (1,1)
    // reproduces replicate 1's inverted order, so the flip
    // probability converges to 0.25.
    const std::vector<std::vector<std::vector<double>>> effects = {
        {{10.0, 2.0}}, // A first
        {{4.0, 6.0}},  // B first
    };
    const methodology::RankStabilityReport report =
        methodology::analyzeRankStability(effects, kBench,
                                          kTwoFactors,
                                          fastBootstrap(), 2);
    // Mean effects are A=7, B=4, so the point order is A, B.
    EXPECT_EQ(report.factors[0].name, "A");
    EXPECT_NEAR(report.flipProbability[0][1], 0.25, 0.03);
    EXPECT_DOUBLE_EQ(report.flipProbability[0][1],
                     report.flipProbability[1][0]);
    EXPECT_DOUBLE_EQ(report.flipProbability[0][0], 0.0);
}

TEST(AnalyzeRankStability, ThreeWayHandComputedFlips)
{
    // C is far below A and B in every replicate: it must never flip
    // against either, while A/B flip with the (1,1)-resample
    // probability of 1/4.
    const std::vector<std::vector<std::vector<double>>> effects = {
        {{10.0, 2.0, 0.5}},
        {{4.0, 6.0, 0.25}},
    };
    const std::vector<std::string> names = {"A", "B", "C"};
    const methodology::RankStabilityReport report =
        methodology::analyzeRankStability(effects, kBench, names,
                                          fastBootstrap(), 3);
    EXPECT_NEAR(report.flipProbability[0][1], 0.25, 0.03);
    EXPECT_DOUBLE_EQ(report.flipProbability[0][2], 0.0);
    EXPECT_DOUBLE_EQ(report.flipProbability[1][2], 0.0);
}

TEST(AnalyzeRankStability, DeterministicForFixedSeed)
{
    const std::vector<std::vector<std::vector<double>>> effects = {
        {{10.0, 2.0}}, {{4.0, 6.0}}, {{8.0, 3.0}}};
    const methodology::RankStabilityReport a =
        methodology::analyzeRankStability(effects, kBench,
                                          kTwoFactors,
                                          fastBootstrap(), 2);
    const methodology::RankStabilityReport b =
        methodology::analyzeRankStability(effects, kBench,
                                          kTwoFactors,
                                          fastBootstrap(), 2);
    EXPECT_EQ(a.toJson(), b.toJson());
}

TEST(AnalyzeRankStability, DistanceMatrixCovered)
{
    const std::vector<std::string> benchmarks = {"b0", "b1"};
    const std::vector<std::vector<std::vector<double>>> effects = {
        {{10.0, 2.0}, {9.0, 3.0}},
        {{8.0, 4.0}, {7.0, 5.0}},
        {{9.0, 3.0}, {8.0, 4.0}},
    };
    const methodology::RankStabilityReport report =
        methodology::analyzeRankStability(effects, benchmarks,
                                          kTwoFactors,
                                          fastBootstrap(), 2);
    ASSERT_EQ(report.distance.size(), 2u);
    EXPECT_LE(report.distanceLower.at(0, 1),
              report.distance.at(0, 1));
    EXPECT_GE(report.distanceUpper.at(0, 1),
              report.distance.at(0, 1));
}

TEST(AnalyzeRankStability, ReportRoundTripsThroughLint)
{
    const std::vector<std::vector<std::vector<double>>> effects = {
        {{10.0, 2.0}}, {{4.0, 6.0}}, {{8.0, 3.0}}};
    methodology::RankStabilityReport report =
        methodology::analyzeRankStability(effects, kBench,
                                          kTwoFactors,
                                          fastBootstrap(), 2);
    report.replicates = 3;
    check::DiagnosticSink sink;
    check::lintStabilityReport(report.toJson(), "report.json", {}, 3,
                               sink);
    EXPECT_FALSE(sink.hasRule(rules::kStatsReportSyntax))
        << sink.toString();
}

namespace
{

methodology::RankStabilityOptions
fastCampaign(unsigned replicates)
{
    methodology::RankStabilityOptions options;
    options.base.instructionsPerRun = 8000;
    options.replication.replicates = replicates;
    options.replication.bootstrap.iterations = 400;
    // The tiny two-benchmark screen genuinely contains unresolved
    // mid-table orderings; the test asserts on the report, not on
    // achieving a perfectly separated top 10.
    options.base.campaign.skipPreflight = true;
    return options;
}

std::vector<trace::WorkloadProfile>
twoWorkloads()
{
    return {trace::workloadByName("gzip"),
            trace::workloadByName("mcf")};
}

/** Three replicates of a sampled screen, four units per run. */
methodology::RankStabilityOptions
sampledCampaign()
{
    methodology::RankStabilityOptions options = fastCampaign(3);
    rigor::sample::SamplingOptions &sampling =
        options.base.campaign.sampling;
    sampling.enabled = true;
    sampling.unitInstructions = 250;
    sampling.warmupInstructions = 250;
    sampling.intervalInstructions = 2000;
    sampling.targetRelativeError = 0.3;
    return options;
}

} // namespace

TEST(ReplicatedPbExperiment, UnderReplicatedFailsPreflight)
{
    methodology::RankStabilityOptions options = fastCampaign(2);
    options.base.campaign.skipPreflight = false;
    try {
        methodology::runReplicatedPbExperiment(twoWorkloads(),
                                               options);
        FAIL() << "under-replicated campaign must not run";
    } catch (const check::PreflightError &e) {
        EXPECT_TRUE(e.sink().hasRule(rules::kCampaignUnderReplicated))
            << e.what();
    }

    // The escape hatch runs the same plan.
    options.base.campaign.skipPreflight = true;
    EXPECT_EQ(methodology::runReplicatedPbExperiment(twoWorkloads(),
                                                     options)
                  .stability.replicates,
              2u);
}

TEST(ReplicatedPbExperiment, ReplicatedCampaignProducesStability)
{
    const auto workloads = twoWorkloads();
    const methodology::ReplicatedPbResult outcome =
        methodology::runReplicatedPbExperiment(workloads,
                                               fastCampaign(3));

    EXPECT_EQ(outcome.stability.replicates, 3u);
    ASSERT_EQ(outcome.stability.benchmarks.size(), 2u);
    EXPECT_EQ(outcome.stability.benchmarks[0], "gzip");
    ASSERT_EQ(outcome.stability.factors.size(),
              methodology::numFactors);
    for (const methodology::FactorStability &factor :
         outcome.stability.factors) {
        EXPECT_LE(factor.rank.lower, factor.rank.upper);
        EXPECT_GE(factor.rank.lower, 1.0);
        EXPECT_LE(factor.rank.upper,
                  static_cast<double>(methodology::numFactors));
    }

    // The pooled screen keeps the base benchmark names and the full
    // PB structure.
    ASSERT_EQ(outcome.pooled.benchmarks.size(), 2u);
    EXPECT_EQ(outcome.pooled.benchmarks[0], "gzip");
    EXPECT_EQ(outcome.pooled.effects.size(), 2u);
    EXPECT_EQ(outcome.pooled.summaries.size(),
              methodology::numFactors);

    // The report feeds the standalone lint path without a syntax
    // diagnostic.
    check::DiagnosticSink sink;
    check::lintStabilityReport(outcome.stability.toJson(),
                               "report.json", {}, 3, sink);
    EXPECT_FALSE(sink.hasRule(rules::kStatsReportSyntax));
}

TEST(ReplicatedPbExperiment, BitIdenticalAcrossThreadCounts)
{
    const auto workloads = twoWorkloads();

    methodology::RankStabilityOptions serial = fastCampaign(3);
    serial.base.campaign.threads = 1;
    rigor::exec::EngineOptions serial_engine;
    serial_engine.threads = 1;
    rigor::exec::SimulationEngine one(serial_engine);
    serial.base.campaign.engine = &one;

    methodology::RankStabilityOptions parallel = fastCampaign(3);
    rigor::exec::EngineOptions parallel_engine;
    parallel_engine.threads = 4;
    rigor::exec::SimulationEngine four(parallel_engine);
    parallel.base.campaign.engine = &four;

    const std::string a =
        methodology::runReplicatedPbExperiment(workloads, serial)
            .stability.toJson();
    const std::string b =
        methodology::runReplicatedPbExperiment(workloads, parallel)
            .stability.toJson();
    EXPECT_EQ(a, b);
}

TEST(ReplicatedPbExperiment, SampledHalfWidthsArePinned)
{
    // Each benchmark's sampling half-width is the RSS of its per-run
    // CI half-widths, averaged in quadrature over the replicates. The
    // stub's half-widths are dyadic, so every sum is exact and the
    // pinned figures do not depend on the summation order.
    rigor::exec::EngineOptions engine_opts;
    engine_opts.threads = 2;
    engine_opts.simulate = [](const rigor::exec::SimJob &job,
                              const rigor::exec::AttemptContext &ctx) {
        const std::size_t row = ctx.jobIndex % 88;
        const double cycles =
            100000.0 + 37.0 * static_cast<double>(row) +
            5.0 * static_cast<double>(job.workload->name.size());
        rigor::sample::SampleSummary sample;
        sample.units = 4;
        sample.streamInstructions = job.instructions;
        sample.ciHalfWidth =
            static_cast<double>(1 + row % 7 + job.workload->name.size()) /
            1024.0;
        sample.cpiMean = cycles / static_cast<double>(job.instructions);
        sample.estimatedCycles = cycles;
        return rigor::exec::CellResult::sampled(sample);
    };
    rigor::exec::SimulationEngine engine(engine_opts);

    methodology::RankStabilityOptions options = sampledCampaign();
    options.base.campaign.engine = &engine;
    const methodology::ReplicatedPbResult outcome =
        methodology::runReplicatedPbExperiment(twoWorkloads(), options);

    ASSERT_TRUE(outcome.stability.samplingCiComposed);
    std::vector<std::string> pinned;
    for (const methodology::ComposedUncertainty &c :
         outcome.stability.composed) {
        char text[64];
        std::snprintf(text, sizeof(text), "%.17g",
                      c.samplingHalfWidth);
        pinned.push_back(c.benchmark + " " + text);
    }
    EXPECT_EQ(pinned, (std::vector<std::string>{
                          "gzip 432.77771370435266",
                          "mcf 391.82108547248112"}));
}

TEST(ReplicatedPbExperiment, SampledBitIdenticalAcrossThreadCounts)
{
    // The per-benchmark RSS sums each replicate's half-widths in row
    // order, so the composed figures do not depend on which worker
    // finished which cell first.
    const auto composedOf = [](unsigned threads) {
        methodology::RankStabilityOptions options = sampledCampaign();
        options.base.campaign.threads = threads;
        std::vector<double> halves;
        for (const methodology::ComposedUncertainty &c :
             methodology::runReplicatedPbExperiment(twoWorkloads(),
                                                    options)
                 .stability.composed)
            halves.push_back(c.samplingHalfWidth);
        return halves;
    };
    const std::vector<double> serial = composedOf(1);
    ASSERT_EQ(serial.size(), 2u);
    EXPECT_GT(serial[0], 0.0);
    for (int repeat = 0; repeat < 3; ++repeat)
        EXPECT_EQ(composedOf(4), serial);
}

TEST(ReplicatedPbExperiment, SampledResumeReproducesTheStabilityReport)
{
    // The sampling term of the composed uncertainty comes from every
    // cell's CI, so the journal must hand the replayed cells' CIs
    // back for a resumed campaign to write the same report.
    const std::string reference =
        methodology::runReplicatedPbExperiment(twoWorkloads(),
                                               sampledCampaign())
            .stability.toJson();

    const std::string path =
        std::string(::testing::TempDir()) + "replicated_resume";
    std::remove(path.c_str());
    {
        rigor::exec::ResultJournal journal(path);
        journal.simulateCrashAfter(200);
        methodology::RankStabilityOptions crashing = sampledCampaign();
        crashing.base.campaign.journal = &journal;
        EXPECT_THROW(
            methodology::runReplicatedPbExperiment(twoWorkloads(),
                                                   crashing),
            rigor::exec::SimulatedCrash);
    }
    rigor::exec::ResultJournal journal(path);
    ASSERT_EQ(journal.loadedRecords(), 200u);
    methodology::RankStabilityOptions resumed = sampledCampaign();
    resumed.base.campaign.journal = &journal;
    EXPECT_EQ(methodology::runReplicatedPbExperiment(twoWorkloads(),
                                                     resumed)
                  .stability.toJson(),
              reference);
    std::remove(path.c_str());
}
