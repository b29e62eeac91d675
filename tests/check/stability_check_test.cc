#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/diagnostic.hh"
#include "check/rule_ids.hh"
#include "check/stability_check.hh"
#include "stats/bootstrap.hh"

namespace check = rigor::check;
namespace rules = rigor::check::rules;

namespace
{

/** Three well-separated factors: no rule should fire. */
check::RankStabilityFindings
cleanFindings()
{
    check::RankStabilityFindings findings;
    findings.factorNames = {"A", "B", "C"};
    findings.rankLower = {1.0, 2.0, 3.0};
    findings.rankUpper = {1.0, 2.0, 3.0};
    findings.flipProbability = {
        {0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}};
    findings.replicates = 3;
    return findings;
}

} // namespace

TEST(StabilityCheck, DisabledReplicationPlanPasses)
{
    rigor::stats::ReplicationOptions replication;
    check::DiagnosticSink sink;
    check::checkReplicationPlan(replication, sink);
    EXPECT_TRUE(sink.passed());
    EXPECT_TRUE(sink.diagnostics().empty());
}

TEST(StabilityCheck, UnderReplicatedPlanFails)
{
    rigor::stats::ReplicationOptions replication;
    replication.replicates = 2;
    check::DiagnosticSink sink;
    check::checkReplicationPlan(replication, sink);
    EXPECT_FALSE(sink.passed());
    EXPECT_TRUE(sink.hasRule(rules::kCampaignUnderReplicated));
}

TEST(StabilityCheck, FloorReplicatesPass)
{
    rigor::stats::ReplicationOptions replication;
    replication.replicates = 3;
    check::DiagnosticSink sink;
    check::checkReplicationPlan(replication, sink);
    EXPECT_TRUE(sink.passed());
}

TEST(StabilityCheck, MalformedBootstrapFailsPlan)
{
    rigor::stats::ReplicationOptions replication;
    replication.replicates = 3;
    replication.bootstrap.iterations = 0;
    check::DiagnosticSink sink;
    check::checkReplicationPlan(replication, sink);
    EXPECT_FALSE(sink.passed());
    EXPECT_TRUE(sink.hasRule(rules::kCampaignUnderReplicated));
}

TEST(StabilityCheck, CleanFindingsPass)
{
    check::DiagnosticSink sink;
    check::checkRankStability(cleanFindings(), {}, sink);
    EXPECT_TRUE(sink.passed());
    EXPECT_TRUE(sink.diagnostics().empty());
}

TEST(StabilityCheck, AdjacentOverlapWarns)
{
    check::RankStabilityFindings findings = cleanFindings();
    // B's CI [1.5, 2.5] overlaps A's [1, 2].
    findings.rankUpper[0] = 2.0;
    findings.rankLower[1] = 1.5;
    findings.rankUpper[1] = 2.5;
    check::DiagnosticSink sink;
    check::checkRankStability(findings, {}, sink);
    EXPECT_TRUE(sink.hasRule(rules::kStatsRankCiOverlap));
    EXPECT_TRUE(sink.passed()) << "overlap is a warning, not an error";
}

TEST(StabilityCheck, OverlapOutsideTopKIgnored)
{
    check::RankStabilityFindings findings = cleanFindings();
    findings.rankUpper[1] = 3.5;
    findings.rankLower[2] = 2.5;
    check::StabilityCheckOptions options;
    options.topFactors = 2;
    check::DiagnosticSink sink;
    check::checkRankStability(findings, options, sink);
    EXPECT_FALSE(sink.hasRule(rules::kStatsRankCiOverlap));
}

TEST(StabilityCheck, FlipAboveThresholdIsError)
{
    check::RankStabilityFindings findings = cleanFindings();
    findings.flipProbability[0][1] = 0.45;
    findings.flipProbability[1][0] = 0.45;
    check::DiagnosticSink sink;
    check::checkRankStability(findings, {}, sink);
    EXPECT_FALSE(sink.passed());
    EXPECT_TRUE(sink.hasRule(rules::kStatsRankFlipInsideNoise));
}

TEST(StabilityCheck, FlipAtThresholdPasses)
{
    check::RankStabilityFindings findings = cleanFindings();
    findings.flipProbability[0][1] = 0.4;
    findings.flipProbability[1][0] = 0.4;
    check::DiagnosticSink sink;
    check::checkRankStability(findings, {}, sink);
    EXPECT_FALSE(sink.hasRule(rules::kStatsRankFlipInsideNoise));
}

TEST(StabilityCheck, MissingCompositionIsError)
{
    check::RankStabilityFindings findings = cleanFindings();
    findings.sampled = true;
    findings.samplingCiComposed = false;
    check::DiagnosticSink sink;
    check::checkRankStability(findings, {}, sink);
    EXPECT_FALSE(sink.passed());
    EXPECT_TRUE(sink.hasRule(rules::kStatsCiComposeMissing));
}

TEST(StabilityCheck, ComposedSampledCampaignPasses)
{
    check::RankStabilityFindings findings = cleanFindings();
    findings.sampled = true;
    findings.samplingCiComposed = true;
    check::DiagnosticSink sink;
    check::checkRankStability(findings, {}, sink);
    EXPECT_TRUE(sink.passed());
}

namespace
{

/** A minimal structurally valid stability report document. */
std::string
reportJson(const std::string &factors, const std::string &flips,
           unsigned replicates, bool sampled, bool composed)
{
    std::string json = "{\"replicates\": ";
    json += std::to_string(replicates);
    json += ", \"sampled\": ";
    json += sampled ? "true" : "false";
    json += ", \"samplingCiComposed\": ";
    json += composed ? "true" : "false";
    json += ", \"factors\": [";
    json += factors;
    json += "], \"flipProbability\": [";
    json += flips;
    json += "]}";
    return json;
}

const char *const kTwoFactors =
    "{\"name\": \"A\", \"rankLower\": 1, \"rankUpper\": 1},"
    "{\"name\": \"B\", \"rankLower\": 2, \"rankUpper\": 2}";

} // namespace

TEST(StabilityLint, CleanReportPasses)
{
    check::DiagnosticSink sink;
    check::lintStabilityReport(
        reportJson(kTwoFactors, "[0, 0], [0, 0]", 3, false, false),
        "report.json", {}, sink);
    EXPECT_TRUE(sink.passed());
    EXPECT_TRUE(sink.diagnostics().empty());
}

TEST(StabilityLint, UnderReplicatedReportFails)
{
    check::DiagnosticSink sink;
    check::lintStabilityReport(
        reportJson(kTwoFactors, "[0, 0], [0, 0]", 2, false, false),
        "report.json", {}, sink);
    EXPECT_TRUE(sink.hasRule(rules::kCampaignUnderReplicated));
}

TEST(StabilityLint, OverlapInReportWarns)
{
    const char *factors =
        "{\"name\": \"A\", \"rankLower\": 1, \"rankUpper\": 2},"
        "{\"name\": \"B\", \"rankLower\": 1.5, \"rankUpper\": 2.5}";
    check::DiagnosticSink sink;
    check::lintStabilityReport(
        reportJson(factors, "[0, 0.1], [0.1, 0]", 3, false, false),
        "report.json", {}, sink);
    EXPECT_TRUE(sink.hasRule(rules::kStatsRankCiOverlap));
}

TEST(StabilityLint, FlipInReportIsError)
{
    check::DiagnosticSink sink;
    check::lintStabilityReport(
        reportJson(kTwoFactors, "[0, 0.6], [0.6, 0]", 3, false,
                   false),
        "report.json", {}, sink);
    EXPECT_TRUE(sink.hasRule(rules::kStatsRankFlipInsideNoise));
    EXPECT_FALSE(sink.passed());
}

TEST(StabilityLint, UncomposedSampledReportIsError)
{
    check::DiagnosticSink sink;
    check::lintStabilityReport(
        reportJson(kTwoFactors, "[0, 0], [0, 0]", 3, true, false),
        "report.json", {}, sink);
    EXPECT_TRUE(sink.hasRule(rules::kStatsCiComposeMissing));
}

TEST(StabilityLint, MalformedJsonIsSyntaxError)
{
    for (const char *broken :
         {"", "{", "not json", "[1, 2, 3]",
          "{\"replicates\": 3}",
          "{\"replicates\": \"three\", \"sampled\": false, "
          "\"samplingCiComposed\": true, \"factors\": [], "
          "\"flipProbability\": []}",
          // Replicate counts an unsigned cannot hold exactly.
          "{\"replicates\": 4294967296, \"sampled\": false, "
          "\"samplingCiComposed\": true, \"factors\": [], "
          "\"flipProbability\": []}",
          "{\"replicates\": 4294967298, \"sampled\": false, "
          "\"samplingCiComposed\": true, \"factors\": [], "
          "\"flipProbability\": []}",
          "{\"replicates\": 1e999, \"sampled\": false, "
          "\"samplingCiComposed\": true, \"factors\": [], "
          "\"flipProbability\": []}",
          "{\"replicates\": 3.7, \"sampled\": false, "
          "\"samplingCiComposed\": true, \"factors\": [], "
          "\"flipProbability\": []}"}) {
        check::DiagnosticSink sink;
        check::lintStabilityReport(broken, "report.json", {}, sink);
        EXPECT_TRUE(sink.hasRule(rules::kStatsReportSyntax))
            << "input: " << broken;
        EXPECT_FALSE(sink.passed());
    }
}

TEST(StabilityLint, RaggedFlipMatrixIsSyntaxError)
{
    check::DiagnosticSink sink;
    check::lintStabilityReport(
        reportJson(kTwoFactors, "[0, 0, 0], [0, 0]", 3, false,
                   false),
        "report.json", {}, sink);
    EXPECT_TRUE(sink.hasRule(rules::kStatsReportSyntax));
}

TEST(StabilityLint, ReplicateCountRangeEndsAreAccepted)
{
    for (unsigned replicates : {0u, 4294967295u}) {
        check::DiagnosticSink sink;
        check::lintStabilityReport(
            reportJson(kTwoFactors, "[0, 0], [0, 0]", replicates, false,
                       false),
            "report.json", {}, sink);
        EXPECT_TRUE(sink.diagnostics().empty())
            << "replicates: " << replicates;
    }
}
