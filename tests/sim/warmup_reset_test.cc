#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "methodology/parameter_space.hh"
#include "sim/core.hh"
#include "trace/generator.hh"
#include "trace/vector_source.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace methodology = rigor::methodology;
namespace sim = rigor::sim;
namespace trace = rigor::trace;

namespace
{

trace::WorkloadProfile
workload()
{
    return trace::workloadByName("gzip");
}

sim::ProcessorConfig
configWithPredictor(sim::BranchPredictorKind kind)
{
    sim::ProcessorConfig config =
        methodology::uniformConfig(doe::Level::High);
    config.bpred = kind;
    config.validate();
    return config;
}

void
expectSameStats(const sim::CoreStats &a, const sim::CoreStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.btbMisfetches, b.btbMisfetches);
    EXPECT_EQ(a.rasMispredicts, b.rasMispredicts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.interceptedInstructions, b.interceptedInstructions);
    EXPECT_EQ(a.warmupInstructions, b.warmupInstructions);
    EXPECT_EQ(a.warmupCycles, b.warmupCycles);
}

} // namespace

// ----- Warm-up vs stream-length boundaries -----

TEST(WarmupAccounting, WarmupEqualToStreamLengthIsRejected)
{
    const trace::WorkloadProfile profile = workload();
    trace::SyntheticTraceGenerator gen(profile, 5000);
    sim::SuperscalarCore core(
        configWithPredictor(sim::BranchPredictorKind::TwoLevel));
    EXPECT_THROW(core.run(gen, 5000), std::invalid_argument);
}

TEST(WarmupAccounting, WarmupLongerThanStreamIsRejected)
{
    const trace::WorkloadProfile profile = workload();
    trace::SyntheticTraceGenerator gen(profile, 5000);
    sim::SuperscalarCore core(
        configWithPredictor(sim::BranchPredictorKind::TwoLevel));
    EXPECT_THROW(core.run(gen, 5001), std::invalid_argument);
}

TEST(WarmupAccounting, ZeroWarmupMeasuresEverything)
{
    const trace::WorkloadProfile profile = workload();
    trace::SyntheticTraceGenerator gen(profile, 5000);
    sim::SuperscalarCore core(
        configWithPredictor(sim::BranchPredictorKind::TwoLevel));
    const sim::CoreStats stats = core.run(gen, 0);
    EXPECT_EQ(stats.warmupInstructions, 0u);
    EXPECT_EQ(stats.warmupCycles, 0u);
    EXPECT_EQ(stats.measuredInstructions(), stats.instructions);
    EXPECT_EQ(stats.measuredCycles(), stats.cycles);
}

TEST(WarmupAccounting, WarmupOneShortOfStreamLatches)
{
    // The historic latch compared against a cumulative counter and
    // could only fire mid-run; a warm-up one instruction short of
    // the stream is the tightest boundary that must still latch.
    const trace::WorkloadProfile profile = workload();
    trace::SyntheticTraceGenerator gen(profile, 5000);
    sim::SuperscalarCore core(
        configWithPredictor(sim::BranchPredictorKind::TwoLevel));
    const sim::CoreStats stats = core.run(gen, 4999);
    EXPECT_EQ(stats.warmupInstructions, 4999u);
    EXPECT_GT(stats.warmupCycles, 0u);
    EXPECT_EQ(stats.measuredInstructions(), 1u);
}

TEST(WarmupAccounting, LatchFiresOnSecondRunOfSameCore)
{
    // The cumulative-stats core runs batch after batch; the warm-up
    // target must be relative to the instructions already retired,
    // not an absolute count that only ever matches on the first run.
    const trace::WorkloadProfile profile = workload();
    sim::SuperscalarCore core(
        configWithPredictor(sim::BranchPredictorKind::TwoLevel));
    trace::SyntheticTraceGenerator first(profile, 4000);
    core.run(first, 1000);
    trace::SyntheticTraceGenerator second(profile, 4000);
    const sim::CoreStats stats = core.run(second, 1000);
    // The second run's warm-up latched at 4000 (first run) + 1000.
    EXPECT_EQ(stats.warmupInstructions, 5000u);
    EXPECT_EQ(stats.instructions, 8000u);
}

// ----- run -> reset -> run bit-identity -----

TEST(CoreReset, RunResetRunIsBitIdentical)
{
    const trace::WorkloadProfile profile = workload();
    for (const sim::BranchPredictorKind kind :
         {sim::BranchPredictorKind::TwoLevel,
          sim::BranchPredictorKind::Perfect}) {
        SCOPED_TRACE(static_cast<int>(kind));
        sim::SuperscalarCore core(configWithPredictor(kind));

        trace::SyntheticTraceGenerator first(profile, 8000);
        const sim::CoreStats cold = core.run(first, 500);

        core.reset();
        trace::SyntheticTraceGenerator second(profile, 8000);
        const sim::CoreStats again = core.run(second, 500);
        expectSameStats(cold, again);
    }
}

TEST(CoreReset, ResetMatchesFreshCore)
{
    const trace::WorkloadProfile profile = workload();
    const sim::ProcessorConfig config =
        configWithPredictor(sim::BranchPredictorKind::TwoLevel);

    sim::SuperscalarCore dirty(config);
    trace::SyntheticTraceGenerator polluter(profile, 6000);
    dirty.run(polluter);
    dirty.reset();
    trace::SyntheticTraceGenerator replay(profile, 6000);
    const sim::CoreStats after_reset = dirty.run(replay);

    sim::SuperscalarCore fresh(config);
    trace::SyntheticTraceGenerator baseline(profile, 6000);
    const sim::CoreStats from_fresh = fresh.run(baseline);

    expectSameStats(after_reset, from_fresh);
}

// ----- Functional warming -----

TEST(FunctionalWarm, LeavesTimingStatsUntouched)
{
    const trace::WorkloadProfile profile = workload();
    sim::SuperscalarCore core(
        configWithPredictor(sim::BranchPredictorKind::TwoLevel));
    trace::SyntheticTraceGenerator gen(profile, 10000);
    const std::uint64_t consumed = core.warm(gen, 4000);
    EXPECT_EQ(consumed, 4000u);
    EXPECT_EQ(core.stats().instructions, 0u);
    EXPECT_EQ(core.stats().cycles, 0u);
}

TEST(FunctionalWarm, StopsAtStreamEnd)
{
    const trace::WorkloadProfile profile = workload();
    sim::SuperscalarCore core(
        configWithPredictor(sim::BranchPredictorKind::TwoLevel));
    trace::SyntheticTraceGenerator gen(profile, 1000);
    EXPECT_EQ(core.warm(gen, 5000), 1000u);
}

TEST(FunctionalWarm, WarmedCoreResetsToFreshState)
{
    const trace::WorkloadProfile profile = workload();
    const sim::ProcessorConfig config =
        configWithPredictor(sim::BranchPredictorKind::TwoLevel);

    sim::SuperscalarCore warmed(config);
    trace::SyntheticTraceGenerator warm_stream(profile, 5000);
    warmed.warm(warm_stream, 5000);
    warmed.reset();
    trace::SyntheticTraceGenerator replay(profile, 6000);
    const sim::CoreStats after_reset = warmed.run(replay);

    sim::SuperscalarCore fresh(config);
    trace::SyntheticTraceGenerator baseline(profile, 6000);
    expectSameStats(after_reset, fresh.run(baseline));
}

// ----- the span path -----

namespace
{

std::vector<trace::Instruction>
recordStream(std::uint64_t length)
{
    const trace::WorkloadProfile profile = workload();
    trace::SyntheticTraceGenerator gen(profile, length);
    std::vector<trace::Instruction> stream;
    trace::Instruction inst;
    while (gen.next(inst))
        stream.push_back(inst);
    return stream;
}

} // namespace

TEST(WarmupAccounting, SpanPathRejectsWarmupCoveringTheStream)
{
    const std::vector<trace::Instruction> stream = recordStream(5000);
    sim::SuperscalarCore core(
        configWithPredictor(sim::BranchPredictorKind::TwoLevel));
    EXPECT_THROW(core.run(stream, 5000), std::invalid_argument);
    EXPECT_THROW(core.run(stream, 5001), std::invalid_argument);
    // Rejected before the first instruction.
    EXPECT_EQ(core.stats().instructions, 0u);

    const sim::CoreStats stats = core.run(stream, 4999);
    EXPECT_EQ(stats.warmupInstructions, 4999u);
    EXPECT_EQ(stats.measuredInstructions(), 1u);
}

TEST(WarmupAccounting, SpanAndStreamedRunsAgree)
{
    for (const auto kind : {sim::BranchPredictorKind::TwoLevel,
                            sim::BranchPredictorKind::Perfect}) {
        const std::vector<trace::Instruction> stream = recordStream(6000);
        sim::SuperscalarCore from_span(configWithPredictor(kind));
        from_span.run(stream, 1500);
        const trace::WorkloadProfile profile = workload();
        trace::SyntheticTraceGenerator gen(profile, 6000);
        sim::SuperscalarCore streamed(configWithPredictor(kind));
        streamed.run(gen, 1500);
        expectSameStats(from_span.stats(), streamed.stats());
    }
}

// ----- the poll -----

TEST(CorePoll, CountsInstructionsAcrossRunsAndWarm)
{
    const std::vector<trace::Instruction> stream = recordStream(10000);
    const std::span<const trace::Instruction> all(stream);
    sim::SuperscalarCore core(
        configWithPredictor(sim::BranchPredictorKind::TwoLevel));
    unsigned polls = 0;
    core.setPoll([&polls] { ++polls; });

    // 3000 + 3000 detailed, then 3000 functional, then 1000 more:
    // polls at the 4096th and 8192nd instruction.
    core.run(all.first(3000));
    EXPECT_EQ(polls, 0u);
    core.run(all.subspan(3000, 3000));
    EXPECT_EQ(polls, 1u);
    trace::VectorTraceSource rest(
        std::vector<trace::Instruction>(stream.begin() + 6000,
                                        stream.end()));
    EXPECT_EQ(core.warm(rest, 3000), 3000u);
    EXPECT_EQ(polls, 2u);
    core.run(rest);
    EXPECT_EQ(polls, 2u);

    // A poll that throws abandons the run at its call.
    core.reconfigure(
        configWithPredictor(sim::BranchPredictorKind::TwoLevel));
    core.setPoll([] { throw std::runtime_error("stop"); });
    EXPECT_THROW(core.run(all), std::runtime_error);
    EXPECT_EQ(core.stats().instructions,
              sim::SuperscalarCore::pollInterval - 1);

    // An empty poll polls nothing.
    core.setPoll({});
    core.reconfigure(
        configWithPredictor(sim::BranchPredictorKind::TwoLevel));
    EXPECT_EQ(core.run(all).instructions, 10000u);
}
