/**
 * A design row that replays its stream's L1I, ITLB, L1D and DTLB
 * outcome tracks must be indistinguishable from a live run of the same
 * row: the same CoreStats and the same statistics in all five caches
 * and TLBs. Every one of the 88 foldover rows runs on every workload,
 * at a short length, after a warm-up, and with the precomputation
 * hook attached, the way the engine replays a recorded span: one
 * StreamTracks per stream, shared by all rows, on a core reconfigured
 * row after row.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "enhance/precompute.hh"
#include "methodology/parameter_space.hh"
#include "sim/core.hh"
#include "sim/l1_tracks.hh"
#include "trace/generator.hh"
#include "trace/vector_source.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace enhance = rigor::enhance;
namespace methodology = rigor::methodology;
namespace sim = rigor::sim;
namespace trace = rigor::trace;

namespace
{

/** CoreStats plus every cache's and TLB's counters, in one row. */
std::vector<std::uint64_t>
statsOf(const sim::SuperscalarCore &core)
{
    const sim::CoreStats &s = core.stats();
    std::vector<std::uint64_t> v = {
        s.instructions, s.cycles, s.branches, s.branchMispredicts,
        s.btbMisfetches, s.rasMispredicts, s.loads, s.stores,
        s.interceptedInstructions, s.warmupInstructions,
        s.warmupCycles};
    const sim::MemorySystem &m = core.memory();
    for (const sim::Cache *c : {&m.l1i(), &m.l1d(), &m.l2()})
        v.insert(v.end(), {c->stats().accesses, c->stats().misses,
                           c->stats().evictions});
    for (const sim::Tlb *t : {&m.itlb(), &m.dtlb()})
        v.insert(v.end(), {t->stats().accesses, t->stats().misses});
    return v;
}

/** The recorded stream of @p profile, @p length instructions. */
std::vector<trace::Instruction>
streamOf(const trace::WorkloadProfile &profile, std::uint64_t length)
{
    trace::SyntheticTraceGenerator gen(profile, length);
    std::vector<trace::Instruction> stream;
    trace::Instruction inst;
    while (gen.next(inst))
        stream.push_back(inst);
    return stream;
}

/**
 * Run all 88 foldover rows over @p profile's stream of @p measured +
 * @p warmup instructions, live and replayed, and compare them row by
 * row. @return the number of rows compared
 */
std::size_t
compareRows(const trace::WorkloadProfile &profile,
            std::uint64_t measured, std::uint64_t warmup, bool hooked)
{
    const doe::DesignMatrix design =
        doe::foldover(doe::pbDesignForFactors(methodology::numFactors));
    const std::vector<trace::Instruction> stream =
        streamOf(profile, measured + warmup);

    std::optional<enhance::PrecomputationTable> table;
    if (hooked) {
        trace::VectorTraceSource source(stream);
        table.emplace(128);
        table->profileTrace(source);
    }
    sim::ExecutionHook *hook = table ? &*table : nullptr;

    std::optional<sim::SuperscalarCore> live;
    std::optional<sim::SuperscalarCore> replayed;
    sim::StreamTracks tracks;
    std::size_t rows = 0;
    for (std::size_t row = 0; row < design.numRows(); ++row) {
        const sim::ProcessorConfig config =
            methodology::configForLevels(design.row(row));
        for (auto *core : {&live, &replayed}) {
            if (*core)
                (*core)->reconfigure(config, hook);
            else
                core->emplace(config, hook);
        }
        live->run(stream, warmup);
        replayed->replay(tracks.tracksFor(config, stream));
        replayed->run(stream, warmup);

        EXPECT_EQ(statsOf(*replayed), statsOf(*live))
            << profile.name << ", design row " << row;
        ++rows;
    }

    // Not vacuous: the replayed core's L1D tag store saw none of the
    // accesses it counted, while the live one holds the last block.
    std::uint64_t last_data = 0;
    for (const trace::Instruction &inst : stream)
        if (trace::isMemOp(inst.op))
            last_data = inst.memAddr;
    EXPECT_TRUE(live->memory().l1d().contains(last_data));
    EXPECT_FALSE(replayed->memory().l1d().contains(last_data));
    return rows;
}

} // namespace

TEST(L1Replay, MatchesLiveRunsOnEveryScreenCell)
{
    for (const trace::WorkloadProfile &profile :
         trace::spec2000Workloads())
        EXPECT_EQ(compareRows(profile, 1000, 0, false), 88u);
}

TEST(L1Replay, MatchesLiveRunsAfterAWarmup)
{
    for (const trace::WorkloadProfile &profile :
         trace::spec2000Workloads())
        EXPECT_EQ(compareRows(profile, 1000, 1000, false), 88u);
}

TEST(L1Replay, MatchesLiveRunsWithThePrecomputeHook)
{
    const trace::WorkloadProfile &profile =
        trace::workloadByName("parser");
    EXPECT_EQ(compareRows(profile, 1000, 0, true), 88u);
}

TEST(L1Replay, RebuildsNothingForARepeatedGeometry)
{
    // Every row with the same L1 and TLB geometries replays the same
    // tracks, whatever its latencies.
    const std::vector<trace::Instruction> stream =
        streamOf(trace::workloadByName("gzip"), 2000);
    sim::ProcessorConfig a = methodology::uniformConfig(doe::Level::Low);
    sim::ProcessorConfig b = a;
    b.l1i.latency += 2;
    b.l1d.latency += 2;
    b.itlb.missLatency += 10;
    sim::StreamTracks tracks;
    const sim::L1Tracks first = tracks.tracksFor(a, stream);
    const sim::L1Tracks second = tracks.tracksFor(b, stream);
    EXPECT_EQ(first.l1i, second.l1i);
    EXPECT_EQ(first.itlb, second.itlb);
    EXPECT_EQ(first.l1d, second.l1d);
    EXPECT_EQ(first.dtlb, second.dtlb);
    ASSERT_NE(first.l1i, nullptr);
    EXPECT_GT(first.l1i->size(), 0u);

    b.l1d.sizeBytes *= 2;
    const sim::L1Tracks third = tracks.tracksFor(b, stream);
    EXPECT_EQ(third.l1i, first.l1i);
    EXPECT_NE(third.l1d, first.l1d);
}

TEST(L1Replay, ItlbStaysLiveWhenABlockSpansPages)
{
    sim::ProcessorConfig config =
        methodology::uniformConfig(doe::Level::Low);
    config.itlb.pageBytes = config.l1i.blockBytes / 2;
    const std::vector<trace::Instruction> stream =
        streamOf(trace::workloadByName("gcc"), 1000);
    sim::StreamTracks tracks;
    const sim::L1Tracks replayed = tracks.tracksFor(config, stream);
    EXPECT_EQ(replayed.itlb, nullptr);
    EXPECT_NE(replayed.l1i, nullptr);
}

TEST(L1Replay, ReplayingPastTheTrackThrows)
{
    const sim::ProcessorConfig config =
        methodology::uniformConfig(doe::Level::High);
    const std::vector<trace::Instruction> stream =
        streamOf(trace::workloadByName("mcf"), 2000);
    const std::span<const trace::Instruction> half(stream.data(), 1000);
    sim::StreamTracks tracks;
    sim::SuperscalarCore core(config);
    core.replay(tracks.tracksFor(config, half));
    EXPECT_THROW(core.run(stream), std::logic_error);

    // reconfigure() detached the tracks: the whole stream runs live.
    core.reconfigure(config);
    core.run(stream);
    sim::SuperscalarCore fresh(config);
    fresh.run(stream);
    EXPECT_EQ(statsOf(core), statsOf(fresh));
}
