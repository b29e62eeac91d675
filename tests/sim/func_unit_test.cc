#include <gtest/gtest.h>

#include "sim/func_unit.hh"

namespace sim = rigor::sim;

namespace
{

/** Book the earliest unit for an operation ready at @p ready, the
 *  way the core does: earliestStart() picks the unit, book() takes
 *  it. */
std::uint64_t
reserve(sim::FuPool &pool, std::uint64_t ready, std::uint32_t interval)
{
    pool.earliestStart(ready);
    return pool.book(ready, interval);
}

std::uint64_t
reserve(sim::FuPool &pool, std::uint64_t ready)
{
    return reserve(pool, ready, pool.interval());
}

} // namespace

TEST(FuPool, SingleUnitSerializesAtInterval)
{
    sim::FuPool pool("div", 1, 20, 20); // unpipelined divide
    EXPECT_EQ(reserve(pool, 0), 0u);
    EXPECT_EQ(reserve(pool, 0), 20u);
    EXPECT_EQ(reserve(pool, 0), 40u);
}

TEST(FuPool, PipelinedUnitAcceptsEveryCycle)
{
    sim::FuPool pool("alu", 1, 3, 1);
    EXPECT_EQ(reserve(pool, 0), 0u);
    EXPECT_EQ(reserve(pool, 0), 1u);
    EXPECT_EQ(reserve(pool, 0), 2u);
}

TEST(FuPool, MultipleUnitsRunInParallel)
{
    sim::FuPool pool("alus", 4, 1, 1);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(reserve(pool, 0), 0u);
    EXPECT_EQ(reserve(pool, 0), 1u);
}

TEST(FuPool, ReadyCycleRespected)
{
    sim::FuPool pool("alu", 1, 1, 1);
    EXPECT_EQ(reserve(pool, 100), 100u);
    EXPECT_EQ(reserve(pool, 50), 101u); // unit busy until 101
}

TEST(FuPool, EarliestStartPredictsReserve)
{
    sim::FuPool pool("mul", 2, 7, 7);
    reserve(pool, 0);
    reserve(pool, 0);
    EXPECT_EQ(pool.earliestStart(0), 7u);
    EXPECT_EQ(pool.book(0, 7), 7u);
}

TEST(FuPool, ReserveForUsesPerOpInterval)
{
    // Shared int mult/div pool: mult interval 1, div interval 30.
    sim::FuPool pool("imd", 1, 7, 1);
    EXPECT_EQ(reserve(pool, 0, 30), 0u); // divide blocks the unit
    EXPECT_EQ(reserve(pool, 0, 1), 30u); // multiply must wait
    EXPECT_EQ(reserve(pool, 0, 1), 31u);
}

TEST(FuPool, StallAccounting)
{
    sim::FuPool pool("alu", 1, 1, 10);
    EXPECT_EQ(reserve(pool, 0), 0u);
    EXPECT_EQ(reserve(pool, 0), 10u); // stalled 10 cycles
    EXPECT_EQ(pool.stats().operations, 2u);
}

TEST(FuPool, ResetClearsBookings)
{
    sim::FuPool pool("alu", 1, 1, 5);
    reserve(pool, 0);
    pool.reset();
    EXPECT_EQ(reserve(pool, 0), 0u);
    EXPECT_EQ(pool.stats().operations, 1u);
}

TEST(FuPool, Validation)
{
    EXPECT_THROW(sim::FuPool("x", 0, 1, 1), std::invalid_argument);
    EXPECT_THROW(sim::FuPool("x", 1, 0, 1), std::invalid_argument);
    EXPECT_THROW(sim::FuPool("x", 1, 1, 0), std::invalid_argument);
    sim::FuPool pool("x", 1, 1, 1);
    EXPECT_THROW(reserve(pool, 0, 0), std::invalid_argument);
}

TEST(FuPool, MorePipelinedUnitsClearBacklogFaster)
{
    sim::FuPool one("one", 1, 5, 5);
    sim::FuPool four("four", 4, 5, 5);
    std::uint64_t last_one = 0;
    std::uint64_t last_four = 0;
    for (int i = 0; i < 8; ++i) {
        last_one = reserve(one, 0);
        last_four = reserve(four, 0);
    }
    EXPECT_EQ(last_one, 35u);
    EXPECT_EQ(last_four, 5u);
}
