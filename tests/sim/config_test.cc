#include <gtest/gtest.h>

#include "sim/config.hh"

namespace sim = rigor::sim;

TEST(ProcessorConfig, DefaultsValidate)
{
    const sim::ProcessorConfig c;
    EXPECT_NO_THROW(c.validate());
}

TEST(ProcessorConfig, LsqIsRatioOfRob)
{
    sim::ProcessorConfig c;
    c.robEntries = 64;
    c.lsqRatio = 0.25;
    EXPECT_EQ(c.lsqEntries(), 16u);
    c.lsqRatio = 1.0;
    EXPECT_EQ(c.lsqEntries(), 64u);
    // Never zero, even for a tiny ROB.
    c.robEntries = 2;
    c.lsqRatio = 0.25;
    EXPECT_EQ(c.lsqEntries(), 1u);
}

TEST(ProcessorConfig, LinkedThroughputsEqualLatencies)
{
    sim::ProcessorConfig c;
    c.intDivLatency = 80;
    c.fpMultLatency = 5;
    c.fpDivLatency = 35;
    c.fpSqrtLatency = 35;
    EXPECT_EQ(c.intDivThroughput(), 80u);
    EXPECT_EQ(c.fpMultThroughput(), 5u);
    EXPECT_EQ(c.fpDivThroughput(), 35u);
    EXPECT_EQ(c.fpSqrtThroughput(), 35u);
}

TEST(ProcessorConfig, MemFollowingLatencyLink)
{
    sim::ProcessorConfig c;
    c.memLatencyFirst = 200;
    EXPECT_EQ(c.memLatencyFollowing(), 4u);
    c.memLatencyFirst = 50;
    EXPECT_EQ(c.memLatencyFollowing(), 1u);
}

TEST(ProcessorConfig, ValidateRejectsBadCore)
{
    sim::ProcessorConfig c;
    c.robEntries = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = sim::ProcessorConfig{};
    c.lsqRatio = 0.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = sim::ProcessorConfig{};
    c.btbEntries = 12; // not a power of two
    EXPECT_THROW(c.validate(), std::invalid_argument);

    // Configs arrive memcpy'd from sandbox pipes, so an enum field
    // can carry any bit pattern.
    for (const int kind : {1, 2, 3, 5, 7}) {
        c = sim::ProcessorConfig{};
        c.bpred = static_cast<sim::BranchPredictorKind>(kind);
        EXPECT_THROW(c.validate(), std::invalid_argument) << kind;
    }
    c = sim::ProcessorConfig{};
    c.specBranchUpdate = static_cast<sim::BranchUpdateTiming>(9);
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = sim::ProcessorConfig{};
    c.bpred = sim::BranchPredictorKind::Perfect;
    c.specBranchUpdate = sim::BranchUpdateTiming::InDecode;
    EXPECT_NO_THROW(c.validate());
}

TEST(ProcessorConfig, ValidateRejectsBadCache)
{
    sim::ProcessorConfig c;
    c.l1d.sizeBytes = 3000; // not a power of two
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = sim::ProcessorConfig{};
    c.l1d.blockBytes = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = sim::ProcessorConfig{};
    c.l2.blockBytes = 16; // smaller than L1 blocks
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ProcessorConfig, ValidateRejectsBadFunctionalUnits)
{
    sim::ProcessorConfig c;
    c.intAlus = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = sim::ProcessorConfig{};
    c.fpDivLatency = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ProcessorConfig, ValidateRejectsBadMemory)
{
    sim::ProcessorConfig c;
    c.memBandwidthBytes = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = sim::ProcessorConfig{};
    c.itlb.pageBytes = 3000;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ProcessorConfig, EnumNames)
{
    EXPECT_EQ(sim::toString(sim::BranchPredictorKind::TwoLevel),
              "2-Level");
    EXPECT_EQ(sim::toString(sim::BranchPredictorKind::Perfect),
              "Perfect");
    EXPECT_EQ(sim::toString(sim::BranchUpdateTiming::InCommit),
              "In Commit");
}

TEST(ProcessorConfig, ToStringMentionsKeyFields)
{
    sim::ProcessorConfig c;
    c.robEntries = 64;
    const std::string s = c.toString();
    EXPECT_NE(s.find("rob=64"), std::string::npos);
    EXPECT_NE(s.find("l2:"), std::string::npos);
}

TEST(CacheGeometry, FullyAssociativeZeroMeansAllWays)
{
    sim::CacheGeometry g{1024, 0, 32, 1};
    EXPECT_EQ(g.effectiveAssoc(), 32u);
    EXPECT_EQ(g.numSets(), 1u);
}

TEST(TlbGeometry, FullyAssociative)
{
    sim::TlbGeometry g{64, 4096, 0, 30};
    EXPECT_EQ(g.effectiveAssoc(), 64u);
    EXPECT_EQ(g.numSets(), 1u);
}
