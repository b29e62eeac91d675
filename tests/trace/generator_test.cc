#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace trace = rigor::trace;

namespace
{

std::vector<trace::Instruction>
generate(const std::string &workload, std::uint64_t n)
{
    trace::SyntheticTraceGenerator gen(
        trace::workloadByName(workload), n);
    std::vector<trace::Instruction> out;
    out.reserve(n);
    trace::Instruction inst;
    while (gen.next(inst))
        out.push_back(inst);
    return out;
}

} // namespace

TEST(Generator, ProducesExactLength)
{
    const auto v = generate("gzip", 12345);
    EXPECT_EQ(v.size(), 12345u);
}

TEST(Generator, ResetReproducesIdenticalStream)
{
    trace::SyntheticTraceGenerator gen(trace::workloadByName("gcc"),
                                       5000);
    std::vector<std::uint64_t> first;
    trace::Instruction inst;
    while (gen.next(inst))
        first.push_back(inst.pc ^ inst.memAddr ^
                        static_cast<std::uint64_t>(inst.op));
    gen.reset();
    std::size_t i = 0;
    while (gen.next(inst)) {
        ASSERT_LT(i, first.size());
        EXPECT_EQ(first[i],
                  inst.pc ^ inst.memAddr ^
                      static_cast<std::uint64_t>(inst.op));
        ++i;
    }
    EXPECT_EQ(i, first.size());
}

TEST(Generator, TwoInstancesAgree)
{
    // The PB experiment builds a fresh generator per run; all runs
    // must observe the same workload.
    trace::SyntheticTraceGenerator a(trace::workloadByName("art"),
                                     3000);
    trace::SyntheticTraceGenerator b(trace::workloadByName("art"),
                                     3000);
    trace::Instruction ia;
    trace::Instruction ib;
    while (a.next(ia)) {
        ASSERT_TRUE(b.next(ib));
        EXPECT_EQ(ia.pc, ib.pc);
        EXPECT_EQ(ia.op, ib.op);
        EXPECT_EQ(ia.memAddr, ib.memAddr);
        EXPECT_EQ(ia.taken, ib.taken);
        EXPECT_EQ(ia.valA, ib.valA);
    }
}

TEST(Generator, InstructionMixTracksProfile)
{
    const trace::WorkloadProfile &p = trace::workloadByName("gzip");
    const auto v = generate("gzip", 200000);
    std::map<trace::OpClass, double> frac;
    std::size_t non_control = 0;
    for (const trace::Instruction &inst : v) {
        if (!trace::isControlOp(inst.op)) {
            ++non_control;
            frac[inst.op] += 1.0;
        }
    }
    for (auto &[op, count] : frac)
        count /= static_cast<double>(non_control);
    EXPECT_NEAR(frac[trace::OpClass::Load], p.fracLoad, 0.04);
    EXPECT_NEAR(frac[trace::OpClass::Store], p.fracStore, 0.03);
    EXPECT_GT(frac[trace::OpClass::IntAlu], 0.4);
}

TEST(Generator, BasicBlockGeometryReasonable)
{
    const trace::WorkloadProfile &p = trace::workloadByName("gcc");
    const auto v = generate("gcc", 100000);
    std::size_t control = 0;
    for (const trace::Instruction &inst : v)
        if (trace::isControlOp(inst.op))
            ++control;
    const double avg_block =
        static_cast<double>(v.size()) / static_cast<double>(control);
    // Mean block = body + terminator; body mean ~ avgBlockInstrs.
    EXPECT_NEAR(avg_block, p.avgBlockInstrs + 1.0, 1.5);
}

TEST(Generator, CodeFootprintRespectsProfile)
{
    // Execution stays inside the hot instruction working set: that
    // set, not the total static size, is what the I-cache contends
    // with (WorkloadProfile::hotCodeBytes).
    const trace::WorkloadProfile &p = trace::workloadByName("mesa");
    const auto v = generate("mesa", 200000);
    std::uint64_t min_pc = ~0ULL;
    std::uint64_t max_pc = 0;
    for (const trace::Instruction &inst : v) {
        min_pc = std::min(min_pc, inst.pc);
        max_pc = std::max(max_pc, inst.pc);
    }
    EXPECT_LE(max_pc - min_pc, p.hotCodeBytes + 4096);
    // And a big-code benchmark touches most of that working set.
    EXPECT_GT(max_pc - min_pc, p.hotCodeBytes / 2);
}

TEST(Generator, HotCodeOrderingAcrossWorkloads)
{
    // mesa's touched code must far exceed mcf's — the contrast the
    // paper's Table 9 commentary highlights.
    const auto touched = [](const char *name) {
        trace::SyntheticTraceGenerator gen(
            trace::workloadByName(name), 150000);
        std::set<std::uint64_t> blocks;
        trace::Instruction inst;
        while (gen.next(inst))
            blocks.insert(inst.pc / 64);
        return blocks.size() * 64;
    };
    EXPECT_GT(touched("mesa"), 8 * touched("mcf"));
}

TEST(Generator, SmallCodeBenchmarkStaysSmall)
{
    const trace::WorkloadProfile &p = trace::workloadByName("mcf");
    const auto v = generate("mcf", 50000);
    std::set<std::uint64_t> blocks;
    for (const trace::Instruction &inst : v)
        blocks.insert(inst.pc / 64);
    EXPECT_LT(blocks.size() * 64, p.codeFootprintBytes + 4096);
}

TEST(Generator, DataAddressesWithinFootprint)
{
    const trace::WorkloadProfile &p = trace::workloadByName("mcf");
    const auto v = generate("mcf", 100000);
    bool any_mem = false;
    for (const trace::Instruction &inst : v) {
        if (trace::isMemOp(inst.op)) {
            any_mem = true;
            EXPECT_GE(inst.memAddr, 0x10000000u);
            EXPECT_LT(inst.memAddr,
                      0x10000000u + p.dataFootprintBytes + 64);
        }
    }
    EXPECT_TRUE(any_mem);
}

TEST(Generator, MemoryBoundWorkloadTouchesLargeSet)
{
    const auto mcf = generate("mcf", 200000);
    const auto gzip = generate("gzip", 200000);
    const auto touched = [](const std::vector<trace::Instruction> &v) {
        std::set<std::uint64_t> lines;
        for (const trace::Instruction &inst : v)
            if (trace::isMemOp(inst.op))
                lines.insert(inst.memAddr / 64);
        return lines.size();
    };
    EXPECT_GT(touched(mcf), 3 * touched(gzip));
}

TEST(Generator, CallsAndReturnsBalanceApproximately)
{
    const auto v = generate("parser", 300000);
    long depth = 0;
    long max_depth = 0;
    std::size_t calls = 0;
    for (const trace::Instruction &inst : v) {
        if (inst.op == trace::OpClass::Call) {
            ++depth;
            ++calls;
            EXPECT_NE(inst.retAddr, 0u);
        } else if (inst.op == trace::OpClass::Return) {
            --depth;
        }
        max_depth = std::max(max_depth, depth);
    }
    EXPECT_GT(calls, 100u);
    EXPECT_GE(depth, 0); // never more returns than calls
    EXPECT_GT(max_depth, 4); // parser recurses deeply
}

TEST(Generator, BranchTakenRateNearProfileBias)
{
    const auto v = generate("art", 200000);
    std::size_t branches = 0;
    std::size_t taken = 0;
    for (const trace::Instruction &inst : v) {
        if (inst.op == trace::OpClass::Branch) {
            ++branches;
            if (inst.taken)
                ++taken;
        }
    }
    ASSERT_GT(branches, 1000u);
    const double rate =
        static_cast<double>(taken) / static_cast<double>(branches);
    // Loop back-edges push the overall taken rate well above half.
    EXPECT_GT(rate, 0.5);
    EXPECT_LT(rate, 0.99);
}

TEST(Generator, ValueLocalityCreatesRedundantTuples)
{
    // gzip (high value locality) must repeat (op, valA, valB) tuples
    // far more often than mcf (low locality).
    const auto redundancy = [](const std::string &name) {
        const auto v = generate(name, 100000);
        std::map<std::pair<std::uint32_t, std::uint32_t>, int> counts;
        std::size_t alus = 0;
        for (const trace::Instruction &inst : v)
            if (inst.op == trace::OpClass::IntAlu) {
                ++alus;
                ++counts[{inst.valA, inst.valB}];
            }
        std::size_t repeated = 0;
        for (const auto &[k, n] : counts)
            if (n > 1)
                repeated += n;
        return static_cast<double>(repeated) /
               static_cast<double>(alus);
    };
    EXPECT_GT(redundancy("gzip"), 2.0 * redundancy("mcf"));
}

TEST(Generator, TakenBranchTargetsAreBlockStarts)
{
    const auto v = generate("twolf", 50000);
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
        if (trace::isControlOp(v[i].op) && v[i].taken) {
            EXPECT_EQ(v[i + 1].pc, v[i].target)
                << "taken transfer must continue at its target";
        } else if (!trace::isControlOp(v[i].op)) {
            EXPECT_EQ(v[i + 1].pc, v[i].pc + 4)
                << "sequential flow must be contiguous";
        }
    }
}
