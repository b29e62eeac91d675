#include <gtest/gtest.h>

#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "methodology/parameter_space.hh"

namespace doe = rigor::doe;
namespace methodology = rigor::methodology;
namespace sim = rigor::sim;

namespace
{

std::vector<doe::Level>
uniform(doe::Level level)
{
    return std::vector<doe::Level>(methodology::numFactors, level);
}

} // namespace

TEST(ParameterSpace, CountsMatchPaper)
{
    EXPECT_EQ(methodology::numFactors, 43u);
    EXPECT_EQ(methodology::numRealParameters, 41u);
    EXPECT_EQ(methodology::parameterDefinitions().size(), 43u);
    EXPECT_EQ(methodology::factorNames().size(), 43u);
}

TEST(ParameterSpace, NamesMatchTable9Vocabulary)
{
    const std::vector<std::string> names = methodology::factorNames();
    const auto has = [&](const char *n) {
        for (const std::string &name : names)
            if (name == n)
                return true;
        return false;
    };
    EXPECT_TRUE(has("Reorder Buffer Entries"));
    EXPECT_TRUE(has("L2 Cache Latency"));
    EXPECT_TRUE(has("BPred Type"));
    EXPECT_TRUE(has("Int ALUs"));
    EXPECT_TRUE(has("Dummy Factor #1"));
    EXPECT_TRUE(has("Dummy Factor #2"));
    EXPECT_TRUE(has("Speculative Branch Update"));
}

TEST(ParameterSpace, AllLowMatchesTable6To8LowColumn)
{
    const sim::ProcessorConfig c =
        methodology::configForLevels(uniform(doe::Level::Low));
    EXPECT_EQ(c.ifqEntries, 4u);
    EXPECT_EQ(c.bpred, sim::BranchPredictorKind::TwoLevel);
    EXPECT_EQ(c.bpredPenalty, 10u);
    EXPECT_EQ(c.rasEntries, 4u);
    EXPECT_EQ(c.btbEntries, 16u);
    EXPECT_EQ(c.btbAssoc, 2u);
    EXPECT_EQ(c.specBranchUpdate, sim::BranchUpdateTiming::InCommit);
    EXPECT_EQ(c.robEntries, 8u);
    EXPECT_EQ(c.lsqEntries(), 2u); // 0.25 * 8
    EXPECT_EQ(c.memPorts, 1u);
    EXPECT_EQ(c.intAlus, 1u);
    EXPECT_EQ(c.intAluLatency, 2u);
    EXPECT_EQ(c.fpAluLatency, 5u);
    EXPECT_EQ(c.intMultLatency, 15u);
    EXPECT_EQ(c.intDivLatency, 80u);
    EXPECT_EQ(c.intDivThroughput(), 80u);
    EXPECT_EQ(c.fpSqrtLatency, 35u);
    EXPECT_EQ(c.l1i.sizeBytes, 4u * 1024);
    EXPECT_EQ(c.l1i.assoc, 1u);
    EXPECT_EQ(c.l1i.blockBytes, 16u);
    EXPECT_EQ(c.l1i.latency, 4u);
    EXPECT_EQ(c.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(c.l2.latency, 20u);
    EXPECT_EQ(c.memLatencyFirst, 200u);
    EXPECT_EQ(c.memLatencyFollowing(), 4u);
    EXPECT_EQ(c.memBandwidthBytes, 4u);
    EXPECT_EQ(c.itlb.entries, 32u);
    EXPECT_EQ(c.itlb.pageBytes, 4096u);
    EXPECT_EQ(c.itlb.assoc, 2u);
    EXPECT_EQ(c.itlb.missLatency, 80u);
    EXPECT_EQ(c.dtlbEntries, 32u);
}

TEST(ParameterSpace, AllHighMatchesTable6To8HighColumn)
{
    const sim::ProcessorConfig c =
        methodology::configForLevels(uniform(doe::Level::High));
    EXPECT_EQ(c.ifqEntries, 32u);
    EXPECT_EQ(c.bpred, sim::BranchPredictorKind::Perfect);
    EXPECT_EQ(c.bpredPenalty, 2u);
    EXPECT_EQ(c.rasEntries, 64u);
    EXPECT_EQ(c.btbEntries, 512u);
    EXPECT_EQ(c.btbAssoc, 0u); // fully associative
    EXPECT_EQ(c.specBranchUpdate, sim::BranchUpdateTiming::InDecode);
    EXPECT_EQ(c.robEntries, 64u);
    EXPECT_EQ(c.lsqEntries(), 64u); // 1.0 * 64
    EXPECT_EQ(c.memPorts, 4u);
    EXPECT_EQ(c.intAlus, 4u);
    EXPECT_EQ(c.intAluLatency, 1u);
    EXPECT_EQ(c.intDivLatency, 10u);
    EXPECT_EQ(c.fpSqrtLatency, 15u);
    EXPECT_EQ(c.l1i.sizeBytes, 128u * 1024);
    EXPECT_EQ(c.l1i.assoc, 8u);
    EXPECT_EQ(c.l1i.blockBytes, 64u);
    EXPECT_EQ(c.l1i.latency, 1u);
    EXPECT_EQ(c.l2.sizeBytes, 8192u * 1024);
    EXPECT_EQ(c.l2.blockBytes, 256u);
    EXPECT_EQ(c.l2.latency, 5u);
    EXPECT_EQ(c.memLatencyFirst, 50u);
    EXPECT_EQ(c.memBandwidthBytes, 32u);
    EXPECT_EQ(c.itlb.entries, 256u);
    EXPECT_EQ(c.itlb.pageBytes, 4096u * 1024);
    EXPECT_EQ(c.itlb.assoc, 0u);
    EXPECT_EQ(c.itlb.missLatency, 30u);
}

TEST(ParameterSpace, LinkedParametersFollowTheirMasters)
{
    // D-TLB page size and latency track the I-TLB (shaded rows).
    std::vector<doe::Level> levels = uniform(doe::Level::Low);
    levels[static_cast<std::size_t>(
        methodology::Factor::ItlbPageSize)] = doe::Level::High;
    levels[static_cast<std::size_t>(
        methodology::Factor::ItlbLatency)] = doe::Level::High;
    const sim::ProcessorConfig c = methodology::configForLevels(levels);
    EXPECT_EQ(c.dtlb().pageBytes, c.itlb.pageBytes);
    EXPECT_EQ(c.dtlb().missLatency, c.itlb.missLatency);

    // LSQ follows the ROB.
    std::vector<doe::Level> rob_high = uniform(doe::Level::Low);
    rob_high[static_cast<std::size_t>(
        methodology::Factor::RobEntries)] = doe::Level::High;
    const sim::ProcessorConfig c2 =
        methodology::configForLevels(rob_high);
    EXPECT_EQ(c2.robEntries, 64u);
    EXPECT_EQ(c2.lsqEntries(), 16u); // 0.25 * 64
}

TEST(ParameterSpace, DummyFactorsHaveNoEffectOnConfig)
{
    std::vector<doe::Level> levels = uniform(doe::Level::Low);
    const sim::ProcessorConfig base =
        methodology::configForLevels(levels);
    levels[static_cast<std::size_t>(
        methodology::Factor::DummyFactor1)] = doe::Level::High;
    levels[static_cast<std::size_t>(
        methodology::Factor::DummyFactor2)] = doe::Level::High;
    const sim::ProcessorConfig flipped =
        methodology::configForLevels(levels);
    EXPECT_EQ(base.toString(), flipped.toString());
}

TEST(ParameterSpace, EveryFoldedDesignRowValidates)
{
    // All 88 configurations of the paper's experiment must be legal.
    const doe::DesignMatrix design =
        doe::foldover(doe::pbDesign(44));
    for (std::size_t r = 0; r < design.numRows(); ++r) {
        const std::vector<doe::Level> levels = design.row(r);
        EXPECT_NO_THROW(methodology::configForLevels(levels))
            << "row " << r;
    }
}

TEST(ParameterSpace, RejectsShortLevelVector)
{
    const std::vector<doe::Level> levels(10, doe::Level::Low);
    EXPECT_THROW(methodology::configForLevels(levels),
                 std::invalid_argument);
}

TEST(ParameterSpace, UniformHelpers)
{
    EXPECT_EQ(methodology::uniformConfig(doe::Level::Low).robEntries,
              8u);
    EXPECT_EQ(methodology::uniformConfig(doe::Level::High).robEntries,
              64u);
}

TEST(ParameterSpace, FactorNameLookup)
{
    EXPECT_EQ(methodology::factorName(methodology::Factor::RobEntries),
              "Reorder Buffer Entries");
    EXPECT_EQ(
        methodology::factorName(methodology::Factor::DummyFactor2),
        "Dummy Factor #2");
}
