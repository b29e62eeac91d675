#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/campaign_check.hh"
#include "check/rule_ids.hh"

namespace check = rigor::check;
using check::DegradationMode;
using check::QuarantinedCell;

namespace
{

const std::vector<std::string> kBenchmarks = {"gzip", "mcf", "art"};

QuarantinedCell
cell(const std::string &benchmark, std::size_t row,
     unsigned attempts = 2)
{
    QuarantinedCell c;
    c.benchmark = benchmark;
    c.row = row;
    c.attempts = attempts;
    c.kind = "permanent";
    c.message = "injected fault";
    return c;
}

} // namespace

TEST(CampaignCheck, CleanCampaignPassesSilently)
{
    const check::CampaignAssessment a = check::assessCampaignValidity(
        kBenchmarks, 88, true, {}, DegradationMode::Abort);
    EXPECT_TRUE(a.passed());
    EXPECT_TRUE(a.sink.diagnostics().empty());
    EXPECT_TRUE(a.dropBenchmarks.empty());
}

TEST(CampaignCheck, AbortModeRefusesIncompleteBenchmark)
{
    const check::CampaignAssessment a = check::assessCampaignValidity(
        kBenchmarks, 88, true, {cell("mcf", 17)},
        DegradationMode::Abort);
    EXPECT_FALSE(a.passed());
    EXPECT_TRUE(
        a.sink.hasRule(check::rules::kCampaignCellQuarantined));
    EXPECT_TRUE(
        a.sink.hasRule(check::rules::kCampaignBenchmarkIncomplete));
    EXPECT_TRUE(a.dropBenchmarks.empty());
}

TEST(CampaignCheck, DropModeDropsExactlyTheAffectedBenchmarks)
{
    const check::CampaignAssessment a = check::assessCampaignValidity(
        kBenchmarks, 88, true, {cell("mcf", 17), cell("mcf", 30)},
        DegradationMode::DropBenchmark);
    EXPECT_TRUE(a.passed()) << a.sink.toString();
    EXPECT_TRUE(
        a.sink.hasRule(check::rules::kCampaignBenchmarkDropped));
    ASSERT_EQ(a.dropBenchmarks.size(), 1u);
    EXPECT_EQ(a.dropBenchmarks[0], "mcf");
    // The drop is a warning, never an error: the campaign proceeds
    // loudly, not silently.
    EXPECT_GT(a.sink.warningCount(), 0u);
    EXPECT_EQ(a.sink.errorCount(), 0u);
}

TEST(CampaignCheck, BrokenFoldoverPairIsCalledOut)
{
    // Rows 1 and 45 mirror each other in an 88-row foldover; losing
    // only row 1 breaks the pair.
    const check::CampaignAssessment broken =
        check::assessCampaignValidity(kBenchmarks, 88, true,
                                      {cell("gzip", 1)},
                                      DegradationMode::DropBenchmark);
    EXPECT_TRUE(broken.sink.hasRule(
        check::rules::kCampaignFoldoverPairBroken));

    // Losing both halves of the pair is not *additionally* a broken
    // pair (the whole pair is simply gone).
    const check::CampaignAssessment whole_pair =
        check::assessCampaignValidity(
            kBenchmarks, 88, true,
            {cell("gzip", 1), cell("gzip", 45)},
            DegradationMode::DropBenchmark);
    EXPECT_FALSE(whole_pair.sink.hasRule(
        check::rules::kCampaignFoldoverPairBroken));

    // An unfolded design has no pairs to break.
    const check::CampaignAssessment unfolded =
        check::assessCampaignValidity(kBenchmarks, 44, false,
                                      {cell("gzip", 1)},
                                      DegradationMode::DropBenchmark);
    EXPECT_FALSE(unfolded.sink.hasRule(
        check::rules::kCampaignFoldoverPairBroken));
}

TEST(CampaignCheck, DroppingEveryBenchmarkIsAnError)
{
    const check::CampaignAssessment a = check::assessCampaignValidity(
        kBenchmarks, 88, true,
        {cell("gzip", 0), cell("mcf", 1), cell("art", 2)},
        DegradationMode::DropBenchmark);
    EXPECT_FALSE(a.passed());
    EXPECT_TRUE(
        a.sink.hasRule(check::rules::kCampaignNoCompleteBenchmarks));
}

TEST(CampaignCheck, FactorialDropsWorkloadsWhole)
{
    const check::CampaignAssessment a =
        check::assessFactorialValidity(kBenchmarks, 16,
                                       {cell("art", 5)},
                                       DegradationMode::DropBenchmark);
    EXPECT_TRUE(a.passed());
    ASSERT_EQ(a.dropBenchmarks.size(), 1u);
    EXPECT_EQ(a.dropBenchmarks[0], "art");
    EXPECT_TRUE(
        a.sink.hasRule(check::rules::kCampaignCellQuarantined));

    const check::CampaignAssessment abort_mode =
        check::assessFactorialValidity(kBenchmarks, 16,
                                       {cell("art", 5)},
                                       DegradationMode::Abort);
    EXPECT_FALSE(abort_mode.passed());
}

TEST(CampaignCheck, QuarantineDiagnosticCarriesFailureContext)
{
    const check::CampaignAssessment a = check::assessCampaignValidity(
        kBenchmarks, 88, true, {cell("mcf", 17, 3)},
        DegradationMode::Abort);
    const std::string text = a.sink.toString();
    EXPECT_NE(text.find("benchmark 'mcf', design row 17"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("3 attempts"), std::string::npos) << text;
    EXPECT_NE(text.find("injected fault"), std::string::npos) << text;
    EXPECT_NE(text.find("permanent"), std::string::npos) << text;
}

TEST(CampaignCheck, CampaignErrorRendersTheFullTrail)
{
    check::CampaignAssessment a = check::assessCampaignValidity(
        kBenchmarks, 88, true, {cell("mcf", 17)},
        DegradationMode::Abort);
    const check::CampaignError error("testCampaign",
                                     std::move(a.sink));
    const std::string what = error.what();
    EXPECT_NE(what.find("testCampaign"), std::string::npos);
    EXPECT_NE(what.find("campaign.benchmark-incomplete"),
              std::string::npos)
        << what;
    EXPECT_FALSE(error.diagnostics().empty());
}

TEST(CampaignCheck, DegradationModeNames)
{
    EXPECT_EQ(check::toString(DegradationMode::Abort), "abort");
    EXPECT_EQ(check::toString(DegradationMode::DropBenchmark),
              "drop-benchmark");
}
