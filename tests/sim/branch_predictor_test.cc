#include <gtest/gtest.h>

#include "sim/branch_predictor.hh"

namespace sim = rigor::sim;

// With the history left empty, the gshare index is the PC alone, so
// these four exercise the 2-bit counters and the table indexing.

TEST(TwoLevelPredictor, LearnsABiasedBranch)
{
    sim::TwoLevelPredictor p(1024);
    const std::uint64_t pc = 0x4000;
    // Train taken.
    for (int i = 0; i < 4; ++i)
        p.updateCounters(pc, true);
    EXPECT_TRUE(p.predict(pc));
    // Re-train not-taken.
    for (int i = 0; i < 4; ++i)
        p.updateCounters(pc, false);
    EXPECT_FALSE(p.predict(pc));
}

TEST(TwoLevelPredictor, HysteresisSurvivesOneAnomaly)
{
    sim::TwoLevelPredictor p(1024);
    const std::uint64_t pc = 0x4000;
    for (int i = 0; i < 4; ++i)
        p.updateCounters(pc, true);
    p.updateCounters(pc, false); // single anomaly
    EXPECT_TRUE(p.predict(pc)) << "2-bit counter must not flip on one";
}

TEST(TwoLevelPredictor, DistinctPcsIndependent)
{
    // PCs chosen to land in different table slots (0x1000 and 0x2000
    // alias in a 1024-entry table: (pc >> 2) & 1023 is 0 for both).
    sim::TwoLevelPredictor p(1024);
    for (int i = 0; i < 4; ++i) {
        p.updateCounters(0x1004, true);
        p.updateCounters(0x2008, false);
    }
    EXPECT_TRUE(p.predict(0x1004));
    EXPECT_FALSE(p.predict(0x2008));
}

TEST(TwoLevelPredictor, AliasedPcsShareACounter)
{
    // The flip side: a finite table aliases — train one PC, its alias
    // inherits the prediction.
    sim::TwoLevelPredictor p(1024);
    for (int i = 0; i < 4; ++i)
        p.updateCounters(0x1000, true);
    EXPECT_TRUE(p.predict(0x2000));
}

TEST(TwoLevelPredictor, LearnsAlternatingPatternViaHistory)
{
    // A strictly alternating branch defeats a PC-indexed counter but
    // is perfectly predictable with global history.
    sim::TwoLevelPredictor p(4096, 8);
    const std::uint64_t pc = 0x4000;
    bool outcome = false;
    // Train.
    for (int i = 0; i < 200; ++i) {
        p.updateCounters(pc, outcome);
        p.updateHistory(outcome);
        outcome = !outcome;
    }
    // Measure.
    int correct = 0;
    for (int i = 0; i < 100; ++i) {
        if (p.predict(pc) == outcome)
            ++correct;
        p.updateCounters(pc, outcome);
        p.updateHistory(outcome);
        outcome = !outcome;
    }
    EXPECT_GE(correct, 95);
}

TEST(TwoLevelPredictor, ResetRestoresTheFreshState)
{
    // Train every counter taken and fill the history, then reset: the
    // predictor must then answer a pattern exactly like a fresh one.
    sim::TwoLevelPredictor reused(64, 4);
    for (std::uint64_t pc = 0; pc < 64 * 4; pc += 4) {
        for (int i = 0; i < 3; ++i)
            reused.updateCounters(pc, true);
        reused.updateHistory(true);
    }
    reused.reset();
    sim::TwoLevelPredictor fresh(64, 4);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t pc = 4 * static_cast<std::uint64_t>(i % 7);
        const bool taken = i % 3 != 0;
        ASSERT_EQ(reused.predict(pc), fresh.predict(pc)) << i;
        reused.updateCounters(pc, taken);
        fresh.updateCounters(pc, taken);
        reused.updateHistory(taken);
        fresh.updateHistory(taken);
    }
}

TEST(TwoLevelPredictor, ValidatesConstruction)
{
    EXPECT_THROW(sim::TwoLevelPredictor(1000, 8),
                 std::invalid_argument);
    EXPECT_THROW(sim::TwoLevelPredictor(1024, 0),
                 std::invalid_argument);
    EXPECT_THROW(sim::TwoLevelPredictor(1024, 31),
                 std::invalid_argument);
}
