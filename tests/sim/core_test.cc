#include <gtest/gtest.h>

#include <vector>

#include "sim/core.hh"
#include "trace/vector_source.hh"
#include "trace/workloads.hh"

namespace sim = rigor::sim;
namespace trace = rigor::trace;

namespace
{

/** A generous configuration so single mechanisms can be isolated. */
sim::ProcessorConfig
bigConfig()
{
    sim::ProcessorConfig c;
    c.ifqEntries = 32;
    c.robEntries = 64;
    c.lsqRatio = 1.0;
    c.memPorts = 4;
    c.intAlus = 4;
    c.intAluLatency = 1;
    c.bpred = sim::BranchPredictorKind::Perfect;
    c.l1i = {128 * 1024, 8, 64, 1};
    c.l1d = {128 * 1024, 8, 64, 1};
    c.l2 = {8192 * 1024, 8, 256, 5};
    c.memLatencyFirst = 50;
    c.memBandwidthBytes = 32;
    c.itlb = {256, 4 * 1024 * 1024, 0, 30};
    c.dtlbEntries = 256;
    c.dtlbAssoc = 0;
    c.validate();
    return c;
}

/** n independent single-cycle ALU ops in one I-cache block. */
std::vector<trace::Instruction>
independentAlus(std::size_t n)
{
    std::vector<trace::Instruction> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i].pc = 0x1000 + 4 * (i % 16);
        v[i].op = trace::OpClass::IntAlu;
        v[i].srcA = trace::noReg;
        v[i].srcB = trace::noReg;
        v[i].dst = static_cast<std::uint8_t>(1 + (i % 8));
    }
    return v;
}

/** A serial dependence chain: each op reads the previous result. */
std::vector<trace::Instruction>
dependentChain(std::size_t n)
{
    std::vector<trace::Instruction> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i].pc = 0x1000 + 4 * (i % 16);
        v[i].op = trace::OpClass::IntAlu;
        v[i].srcA = 1;
        v[i].srcB = trace::noReg;
        v[i].dst = 1;
    }
    return v;
}

std::uint64_t
runCycles(const sim::ProcessorConfig &config,
          std::vector<trace::Instruction> instructions,
          sim::ExecutionHook *hook = nullptr)
{
    trace::VectorTraceSource src(std::move(instructions));
    sim::SuperscalarCore core(config, hook);
    return core.run(src).cycles;
}

} // namespace

TEST(Core, EmptyTraceRunsZeroInstructions)
{
    trace::VectorTraceSource src({});
    sim::SuperscalarCore core(bigConfig());
    const sim::CoreStats stats = core.run(src);
    EXPECT_EQ(stats.instructions, 0u);
}

TEST(Core, IndependentWorkReachesWideIpc)
{
    const sim::CoreStats stats = [] {
        trace::VectorTraceSource src(independentAlus(4000));
        sim::SuperscalarCore core(bigConfig());
        return core.run(src);
    }();
    EXPECT_EQ(stats.instructions, 4000u);
    // 4-wide machine with 4 ALUs and no hazards: IPC near 4.
    EXPECT_GT(stats.ipc(), 3.0);
}

TEST(Core, DependenceChainSerializes)
{
    const std::uint64_t dep = runCycles(bigConfig(), dependentChain(2000));
    const std::uint64_t indep =
        runCycles(bigConfig(), independentAlus(2000));
    // The chain needs >= 1 cycle per instruction; independent work
    // runs ~4 per cycle.
    EXPECT_GT(dep, 3 * indep);
    EXPECT_GE(dep, 2000u);
}

TEST(Core, HigherAluLatencySlowsChain)
{
    sim::ProcessorConfig slow = bigConfig();
    slow.intAluLatency = 2;
    const std::uint64_t fast_c = runCycles(bigConfig(),
                                           dependentChain(1000));
    const std::uint64_t slow_c = runCycles(slow, dependentChain(1000));
    // Latency 2 roughly doubles a pure chain.
    EXPECT_GT(slow_c, fast_c + 800);
}

TEST(Core, FewerAlusThrottleIndependentWork)
{
    sim::ProcessorConfig narrow = bigConfig();
    narrow.intAlus = 1;
    const std::uint64_t wide_c = runCycles(bigConfig(),
                                           independentAlus(2000));
    const std::uint64_t narrow_c =
        runCycles(narrow, independentAlus(2000));
    EXPECT_GT(narrow_c, 2 * wide_c);
}

TEST(Core, SmallRobLimitsMemoryParallelism)
{
    // Loads that miss to memory: a big ROB overlaps them, a tiny ROB
    // serializes (this is why ROB entries tops the paper's Table 9).
    std::vector<trace::Instruction> loads(600);
    for (std::size_t i = 0; i < loads.size(); ++i) {
        loads[i].pc = 0x1000 + 4 * (i % 8);
        loads[i].op = trace::OpClass::Load;
        loads[i].srcA = trace::noReg;
        loads[i].srcB = trace::noReg;
        loads[i].dst = static_cast<std::uint8_t>(1 + (i % 8));
        loads[i].memAddr = 0x10000000 + i * 4096; // all L2 misses
    }
    // Narrow the L2 blocks so the channel occupancy per transfer is
    // small: memory-level parallelism (not channel bandwidth) is then
    // the bottleneck, which is exactly what the ROB provides.
    sim::ProcessorConfig big_rob = bigConfig();
    big_rob.l2.blockBytes = 64;
    sim::ProcessorConfig small_rob = big_rob;
    small_rob.robEntries = 8;
    const std::uint64_t big_c = runCycles(big_rob, loads);
    const std::uint64_t small_c = runCycles(small_rob, loads);
    EXPECT_GT(small_c, big_c * 3 / 2);
}

TEST(Core, MispredictionPenaltyCostsCycles)
{
    // Unpredictable alternating-direction branches under a 2-level
    // predictor vs perfect prediction.
    std::vector<trace::Instruction> v;
    trace::Rng rng(42);
    for (int i = 0; i < 2000; ++i) {
        trace::Instruction alu;
        alu.pc = 0x1000 + 8 * (i % 4);
        alu.op = trace::OpClass::IntAlu;
        alu.dst = 1;
        v.push_back(alu);
        trace::Instruction br;
        br.pc = alu.pc + 4;
        br.op = trace::OpClass::Branch;
        br.taken = rng.nextBool(0.5);
        br.target = 0x1000 + 8 * ((i + 1) % 4);
        v.push_back(br);
    }
    sim::ProcessorConfig real = bigConfig();
    real.bpred = sim::BranchPredictorKind::TwoLevel;
    real.bpredPenalty = 10;
    const std::uint64_t perfect_c = runCycles(bigConfig(), v);
    const std::uint64_t real_c = runCycles(real, v);
    EXPECT_GT(real_c, perfect_c + 2000);

    // And a smaller penalty must cost less.
    sim::ProcessorConfig cheap = real;
    cheap.bpredPenalty = 2;
    const std::uint64_t cheap_c = runCycles(cheap, v);
    EXPECT_LT(cheap_c, real_c);
    EXPECT_GT(cheap_c, perfect_c);
}

TEST(Core, PerfectPredictorNeverMispredicts)
{
    std::vector<trace::Instruction> v;
    trace::Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        trace::Instruction br;
        br.pc = 0x1000;
        br.op = trace::OpClass::Branch;
        br.taken = rng.nextBool(0.5);
        br.target = 0x1000;
        v.push_back(br);
    }
    trace::VectorTraceSource src(v);
    sim::SuperscalarCore core(bigConfig()); // perfect predictor
    const sim::CoreStats stats = core.run(src);
    EXPECT_EQ(stats.branchMispredicts, 0u);
    EXPECT_EQ(stats.btbMisfetches, 0u);
}

TEST(Core, ColdICacheStallsFetch)
{
    // March through 1000 distinct I-cache blocks vs looping in one.
    std::vector<trace::Instruction> cold(1000);
    for (std::size_t i = 0; i < cold.size(); ++i) {
        cold[i].pc = 0x1000 + i * 64;
        cold[i].op = trace::OpClass::IntAlu;
        cold[i].dst = 1;
        cold[i].srcA = trace::noReg;
    }
    sim::ProcessorConfig tiny_l1i = bigConfig();
    tiny_l1i.l1i = {4096, 1, 64, 1};
    const std::uint64_t hot_c =
        runCycles(tiny_l1i, independentAlus(1000));
    const std::uint64_t cold_c = runCycles(tiny_l1i, cold);
    EXPECT_GT(cold_c, hot_c * 5);
}

TEST(Core, StoresDoNotBlockCommitLikeLoads)
{
    std::vector<trace::Instruction> stores(400);
    std::vector<trace::Instruction> loads(400);
    for (std::size_t i = 0; i < 400; ++i) {
        stores[i].pc = loads[i].pc = 0x1000 + 4 * (i % 8);
        stores[i].op = trace::OpClass::Store;
        loads[i].op = trace::OpClass::Load;
        loads[i].dst = 1;
        stores[i].memAddr = loads[i].memAddr =
            0x10000000 + i * 4096; // every access misses
    }
    const std::uint64_t store_c = runCycles(bigConfig(), stores);
    const std::uint64_t load_c = runCycles(bigConfig(), loads);
    EXPECT_LT(store_c, load_c);
}

TEST(Core, HookInterceptionSkipsExecution)
{
    // A hook that intercepts everything: a long-latency divide chain
    // becomes single-cycle.
    struct AllHook : sim::ExecutionHook
    {
        bool
        intercept(const trace::Instruction &) override
        {
            return true;
        }
    };

    std::vector<trace::Instruction> divs(300);
    for (std::size_t i = 0; i < divs.size(); ++i) {
        divs[i].pc = 0x1000;
        divs[i].op = trace::OpClass::IntDiv;
        divs[i].srcA = 1;
        divs[i].dst = 1;
    }
    AllHook hook;
    const std::uint64_t plain_c = runCycles(bigConfig(), divs);
    const std::uint64_t hooked_c = runCycles(bigConfig(), divs, &hook);
    EXPECT_GT(plain_c, 10 * hooked_c);

    trace::VectorTraceSource src(divs);
    sim::SuperscalarCore core(bigConfig(), &hook);
    EXPECT_EQ(core.run(src).interceptedInstructions, 300u);
}

TEST(Core, RasMispredictsWhenCallDepthExceedsStack)
{
    // Build a trace of nested calls then returns, deeper than the RAS.
    std::vector<trace::Instruction> v;
    const int depth = 16;
    for (int i = 0; i < depth; ++i) {
        trace::Instruction call;
        call.pc = 0x1000 + i * 64;
        call.op = trace::OpClass::Call;
        call.taken = true;
        call.target = 0x1000 + (i + 1) * 64;
        call.retAddr = 0x8000 + i * 64;
        v.push_back(call);
    }
    for (int i = depth - 1; i >= 0; --i) {
        trace::Instruction ret;
        ret.pc = 0x1000 + (i + 1) * 64 + 32;
        ret.op = trace::OpClass::Return;
        ret.taken = true;
        ret.target = 0x8000 + i * 64;
        v.push_back(ret);
    }

    sim::ProcessorConfig small_ras = bigConfig();
    small_ras.bpred = sim::BranchPredictorKind::TwoLevel;
    small_ras.rasEntries = 4;
    trace::VectorTraceSource src1(v);
    sim::SuperscalarCore core1(small_ras);
    const sim::CoreStats small_stats = core1.run(src1);
    EXPECT_EQ(small_stats.rasMispredicts, depth - 4u);

    sim::ProcessorConfig big_ras = small_ras;
    big_ras.rasEntries = 64;
    trace::VectorTraceSource src2(v);
    sim::SuperscalarCore core2(big_ras);
    EXPECT_EQ(core2.run(src2).rasMispredicts, 0u);
}

TEST(Core, SyntheticWorkloadRunsToCompletion)
{
    const trace::WorkloadProfile &profile =
        trace::workloadByName("gzip");
    trace::SyntheticTraceGenerator gen(profile, 50000);
    sim::SuperscalarCore core(bigConfig());
    const sim::CoreStats stats = core.run(gen);
    EXPECT_EQ(stats.instructions, 50000u);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.ipc(), 0.1);
    EXPECT_LE(stats.ipc(), 4.0);
}

TEST(Core, DeterministicAcrossRuns)
{
    const trace::WorkloadProfile &profile =
        trace::workloadByName("mcf");
    const auto run_once = [&] {
        trace::SyntheticTraceGenerator gen(profile, 20000);
        sim::SuperscalarCore core(bigConfig());
        return core.run(gen).cycles;
    };
    EXPECT_EQ(run_once(), run_once());
}
