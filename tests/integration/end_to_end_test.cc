/**
 * @file
 * Cross-module integration tests: the full paper workflow on a small
 * scale — PB screening over the real simulator and workloads, the
 * qualitative Table 9 expectations, classification, and the
 * enhancement analysis with real instruction precomputation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "doe/ranking.hh"
#include "enhance/precompute.hh"
#include "methodology/classification.hh"
#include "methodology/enhancement_analysis.hh"
#include "methodology/parameter_space.hh"
#include "methodology/pb_experiment.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace enhance = rigor::enhance;
namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

namespace
{

/** Shared experiment over four contrasting workloads. */
const methodology::PbExperimentResult &
baseExperiment()
{
    static const methodology::PbExperimentResult result = [] {
        methodology::PbExperimentOptions opts;
        opts.instructionsPerRun = 50000;
        opts.warmupInstructions = 50000;
        const std::vector<trace::WorkloadProfile> workloads = {
            trace::workloadByName("gzip"),
            trace::workloadByName("mesa"),
            trace::workloadByName("mcf"),
            trace::workloadByName("art"),
        };
        return methodology::runPbExperiment(workloads, opts);
    }();
    return result;
}

unsigned long
sumFor(const methodology::PbExperimentResult &r, const std::string &name)
{
    for (const doe::FactorRankSummary &s : r.summaries)
        if (s.name == name)
            return s.sumOfRanks;
    throw std::logic_error("factor not found: " + name);
}

} // namespace

TEST(EndToEnd, RobAndMemoryParametersBeatDummies)
{
    // The central qualitative claim of Table 9: real bottleneck
    // parameters are far more significant than the dummy factors,
    // whose apparent effect is the design's noise floor.
    const auto &r = baseExperiment();
    const unsigned long rob = sumFor(r, "Reorder Buffer Entries");
    const unsigned long dummy1 = sumFor(r, "Dummy Factor #1");
    const unsigned long dummy2 = sumFor(r, "Dummy Factor #2");
    EXPECT_LT(rob, dummy1);
    EXPECT_LT(rob, dummy2);
    EXPECT_LT(sumFor(r, "L2 Cache Latency"), dummy1);
    EXPECT_LT(sumFor(r, "Memory Latency First"), dummy1);
}

TEST(EndToEnd, RobIsATopParameter)
{
    // ROB entries tops the paper's Table 9; in our reproduction it
    // must at least sit in the leading group.
    const auto &r = baseExperiment();
    const auto &top = r.summaries;
    bool rob_in_top5 = false;
    for (std::size_t i = 0; i < 5; ++i)
        if (top[i].name == "Reorder Buffer Entries")
            rob_in_top5 = true;
    EXPECT_TRUE(rob_in_top5)
        << "top factors: " << top[0].name << ", " << top[1].name
        << ", " << top[2].name << ", " << top[3].name << ", "
        << top[4].name;
}

TEST(EndToEnd, MemoryBoundBenchmarksStressMemoryParameters)
{
    // mcf/art (giant working sets) must rank L2 size / memory latency
    // higher than gzip does.
    const auto &r = baseExperiment();
    const auto idx_of = [&](const std::string &name) {
        std::size_t i = 0;
        for (const auto &def : methodology::parameterDefinitions()) {
            if (def.name == name)
                return i;
            ++i;
        }
        throw std::logic_error("no factor " + name);
    };
    const std::size_t l2_size = idx_of("L2 Cache Size");
    const std::size_t gzip_b = 0;
    const std::size_t mcf_b = 2;
    EXPECT_LT(r.ranks[mcf_b][l2_size], r.ranks[gzip_b][l2_size]);
}

TEST(EndToEnd, ICacheMattersMoreForMesaThanMcf)
{
    // The paper singles out mesa as I-cache bound (rank 1) while
    // mcf's I-cache size rank is 37.
    const auto &r = baseExperiment();
    const auto idx_of = [&](const std::string &name) {
        std::size_t i = 0;
        for (const auto &def : methodology::parameterDefinitions()) {
            if (def.name == name)
                return i;
            ++i;
        }
        throw std::logic_error("no factor " + name);
    };
    const std::size_t l1i_size = idx_of("L1 I-Cache Size");
    const std::size_t mesa_b = 1;
    const std::size_t mcf_b = 2;
    EXPECT_LT(r.ranks[mesa_b][l1i_size], r.ranks[mcf_b][l1i_size]);
}

TEST(EndToEnd, ClassificationSeparatesMemoryBoundFromComputeBound)
{
    const auto &r = baseExperiment();
    const methodology::ClassificationResult cls =
        methodology::classifyBenchmarks(
            r.benchmarks, r.rankVectors(),
            methodology::defaultSimilarityThreshold());
    // Whatever the grouping, it must be a partition of the four.
    std::size_t total = 0;
    for (const auto &g : cls.groups)
        total += g.size();
    EXPECT_EQ(total, 4u);
    // gzip (compute bound, small data) and mcf (memory bound) should
    // not be called similar.
    for (const auto &g : cls.groups) {
        const bool has_gzip =
            std::find(g.begin(), g.end(), "gzip") != g.end();
        const bool has_mcf =
            std::find(g.begin(), g.end(), "mcf") != g.end();
        EXPECT_FALSE(has_gzip && has_mcf);
    }
}

TEST(EndToEnd, PrecomputationEnhancementAnalysis)
{
    // Run the before/after workflow of section 4.3 on one value-local
    // workload with a real profiled precomputation table.
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 20000;
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip"),
        trace::workloadByName("bzip2"),
    };

    // Profile one table per workload, shared (copied) across runs.
    auto gzip_table = std::make_shared<enhance::PrecomputationTable>(128);
    {
        trace::SyntheticTraceGenerator gen(workloads[0],
                                           opts.instructionsPerRun);
        gzip_table->profileTrace(gen);
    }
    auto bzip_table = std::make_shared<enhance::PrecomputationTable>(128);
    {
        trace::SyntheticTraceGenerator gen(workloads[1],
                                           opts.instructionsPerRun);
        bzip_table->profileTrace(gen);
    }

    const methodology::EnhancementExperimentResult result =
        methodology::runEnhancementExperiment(
            workloads, opts,
            [&](const trace::WorkloadProfile &p)
                -> std::unique_ptr<rigor::sim::ExecutionHook> {
                const auto &proto =
                    p.name == "gzip" ? gzip_table : bzip_table;
                return std::make_unique<enhance::PrecomputationTable>(
                    *proto);
            },
            "precompute-128");

    // The enhancement must actually speed things up somewhere.
    double base_total = 0.0;
    double enh_total = 0.0;
    for (std::size_t b = 0; b < 2; ++b)
        for (std::size_t i = 0; i < 88; ++i) {
            base_total += result.base.responses[b][i];
            enh_total += result.enhanced.responses[b][i];
        }
    EXPECT_LT(enh_total, base_total);

    // And the comparison machinery must join the two tables.
    EXPECT_EQ(result.comparison.shifts.size(), methodology::numFactors);
}

TEST(EndToEnd, SignificanceCutoffSeparatesHeadFromTail)
{
    const auto &r = baseExperiment();
    const std::size_t cut =
        doe::significanceCutoff(r.summaries, 15);
    EXPECT_GE(cut, 1u);
    EXPECT_LE(cut, 15u);
}
