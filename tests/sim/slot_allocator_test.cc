#include <gtest/gtest.h>

#include "sim/core.hh"
#include "trace/vector_source.hh"

namespace sim = rigor::sim;
namespace trace = rigor::trace;

TEST(SlotAllocator, HonorsPerCycleCapacity)
{
    sim::SlotAllocator alloc(2);
    EXPECT_EQ(alloc.allocate(10), 10u);
    EXPECT_EQ(alloc.allocate(10), 10u);
    EXPECT_EQ(alloc.allocate(10), 11u); // cycle 10 full
    EXPECT_EQ(alloc.allocate(10), 11u);
    EXPECT_EQ(alloc.allocate(10), 12u);
}

TEST(SlotAllocator, IndependentCycles)
{
    sim::SlotAllocator alloc(1);
    EXPECT_EQ(alloc.allocate(5), 5u);
    EXPECT_EQ(alloc.allocate(100), 100u);
    EXPECT_EQ(alloc.allocate(5), 6u);
}

TEST(SlotAllocator, OutOfOrderRequests)
{
    sim::SlotAllocator alloc(1);
    EXPECT_EQ(alloc.allocate(50), 50u);
    // An earlier-cycle request books the earlier cycle.
    EXPECT_EQ(alloc.allocate(49), 49u);
    // Both booked: next request at 49 spills to 51.
    EXPECT_EQ(alloc.allocate(49), 51u);
}

TEST(SlotAllocator, LongRuns)
{
    sim::SlotAllocator alloc(4);
    // Fill 1000 consecutive cycles at capacity.
    for (std::uint64_t c = 0; c < 1000; ++c)
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(alloc.allocate(c), c);
    // Everything full: the next request lands at 1000.
    EXPECT_EQ(alloc.allocate(0), 1000u);
}

TEST(SlotAllocator, ResetRestoresFullCapacityOfABookedCycle)
{
    sim::SlotAllocator alloc(3);
    for (int k = 0; k < 3; ++k)
        EXPECT_EQ(alloc.allocate(7), 7u);
    EXPECT_EQ(alloc.allocate(7), 8u); // cycle 7 full
    alloc.reset();
    for (int round = 0; round < 2; ++round) {
        // Bookings from before a reset must not count against the
        // same cycle after it, however many resets pass.
        for (int k = 0; k < 3; ++k)
            EXPECT_EQ(alloc.allocate(7), 7u);
        EXPECT_EQ(alloc.allocate(7), 8u);
        alloc.reset();
    }
    // A reset with nothing booked since the last one changes nothing.
    alloc.reset();
    EXPECT_EQ(alloc.allocate(8), 8u);
}

TEST(SlotAllocator, ReconfigureChangesCapacityAndReleasesBookings)
{
    sim::SlotAllocator alloc(1);
    EXPECT_EQ(alloc.allocate(3), 3u);
    alloc.reconfigure(2);
    EXPECT_EQ(alloc.allocate(3), 3u);
    EXPECT_EQ(alloc.allocate(3), 3u);
    EXPECT_EQ(alloc.allocate(3), 4u);
    EXPECT_THROW(alloc.reconfigure(0), std::invalid_argument);
    EXPECT_THROW(alloc.reconfigure(256), std::invalid_argument);
    EXPECT_THROW(alloc.allocate(std::uint64_t{1} << 60),
                 std::out_of_range);
}

TEST(CoreStats, MeasuredWindowAccessors)
{
    sim::CoreStats stats;
    stats.instructions = 100;
    stats.cycles = 500;
    stats.warmupInstructions = 40;
    stats.warmupCycles = 260;
    EXPECT_EQ(stats.measuredInstructions(), 60u);
    EXPECT_EQ(stats.measuredCycles(), 240u);
    EXPECT_DOUBLE_EQ(stats.ipc(), 0.2);
}

TEST(CoreStats, WarmupSplitsRunDeterministically)
{
    // run(n_warmup) must produce the same totals as run(0), with the
    // warmup markers set at the boundary.
    std::vector<trace::Instruction> v(200);
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i].pc = 0x1000 + 4 * (i % 32);
        v[i].op = trace::OpClass::IntAlu;
        v[i].srcA = 1;
        v[i].dst = 1;
    }
    trace::VectorTraceSource src1(v);
    sim::SuperscalarCore core1{sim::ProcessorConfig{}};
    const sim::CoreStats plain = core1.run(src1);

    trace::VectorTraceSource src2(v);
    sim::SuperscalarCore core2{sim::ProcessorConfig{}};
    const sim::CoreStats warmed = core2.run(src2, 100);

    EXPECT_EQ(plain.cycles, warmed.cycles);
    EXPECT_EQ(warmed.warmupInstructions, 100u);
    EXPECT_GT(warmed.warmupCycles, 0u);
    EXPECT_LT(warmed.warmupCycles, warmed.cycles);
}
