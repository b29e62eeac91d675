#include <gtest/gtest.h>

#include "check/config_check.hh"
#include "check/rule_ids.hh"
#include "methodology/parameter_space.hh"
#include "sim/config.hh"

namespace check = rigor::check;
namespace methodology = rigor::methodology;
namespace rules = rigor::check::rules;
namespace sim = rigor::sim;

// ----- checkProcessorConfig -----

TEST(ConfigCheck, DefaultConfigPasses)
{
    check::DiagnosticSink sink;
    EXPECT_TRUE(check::checkProcessorConfig({}, sink));
    EXPECT_EQ(sink.errorCount(), 0u) << sink.toString();
}

TEST(ConfigCheck, LsqRatioAboveOneRejected)
{
    sim::ProcessorConfig config;
    config.lsqRatio = 1.5;
    check::DiagnosticSink sink;
    EXPECT_FALSE(check::checkProcessorConfig(config, sink));
    EXPECT_TRUE(sink.hasRule(rules::kConfigLsqRatio));
}

TEST(ConfigCheck, LsqRatioZeroRejected)
{
    sim::ProcessorConfig config;
    config.lsqRatio = 0.0;
    check::DiagnosticSink sink;
    EXPECT_FALSE(check::checkProcessorConfig(config, sink));
    EXPECT_TRUE(sink.hasRule(rules::kConfigLsqRatio));
}

TEST(ConfigCheck, NonPowerOfTwoCacheRejected)
{
    sim::ProcessorConfig config;
    config.l1d.sizeBytes = 3000;
    check::DiagnosticSink sink;
    EXPECT_FALSE(check::checkProcessorConfig(config, sink));
    EXPECT_TRUE(sink.hasRule(rules::kConfigCacheGeometry));
}

TEST(ConfigCheck, L2BlockSmallerThanL1Rejected)
{
    sim::ProcessorConfig config;
    config.l2.blockBytes = 16; // L1 blocks are 32 bytes
    check::DiagnosticSink sink;
    EXPECT_FALSE(check::checkProcessorConfig(config, sink));
    EXPECT_TRUE(sink.hasRule(rules::kConfigL2BlockCoversL1));
}

TEST(ConfigCheck, ContextLabelsAppearInDiagnostics)
{
    sim::ProcessorConfig config;
    config.lsqRatio = -1.0;
    check::DiagnosticSink sink;
    check::SourceContext base;
    base.object = "factorial cell 7";
    check::checkProcessorConfig(config, sink, base);
    ASSERT_FALSE(sink.diagnostics().empty());
    EXPECT_NE(sink.diagnostics().front().toString().find(
                  "factorial cell 7"),
              std::string::npos);
}

// ----- checkFactorLevelPair / checkParameterSpace -----

TEST(ConfigCheck, EveryShippedFactorLevelPairPasses)
{
    check::DiagnosticSink sink;
    EXPECT_TRUE(check::checkParameterSpace(sink));
    EXPECT_EQ(sink.errorCount(), 0u) << sink.toString();
}

TEST(ConfigCheck, DummyFactorsAreInert)
{
    check::DiagnosticSink sink;
    EXPECT_TRUE(check::checkFactorLevelPair(
        methodology::Factor::DummyFactor1, sink));
    EXPECT_TRUE(check::checkFactorLevelPair(
        methodology::Factor::DummyFactor2, sink));
    EXPECT_EQ(sink.errorCount(), 0u) << sink.toString();
}

TEST(ConfigCheck, RobFactorLevelsAreOrderedAndValid)
{
    check::DiagnosticSink sink;
    EXPECT_TRUE(check::checkFactorLevelPair(
        methodology::Factor::RobEntries, sink));
    EXPECT_TRUE(check::checkFactorLevelPair(
        methodology::Factor::LsqRatio, sink));
    EXPECT_EQ(sink.errorCount(), 0u) << sink.toString();
}
