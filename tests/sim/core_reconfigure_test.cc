/**
 * One core reconfigured row after row must be indistinguishable from a
 * core built fresh for each row: the same CoreStats and the same
 * statistics in every cache, TLB, BTB, RAS and FU pool.
 * The rows come from the 88-row foldover PB design the screen runs,
 * in a seeded order, so cache and TLB geometries grow and shrink,
 * the predictor switches between its two levels, and the core carries
 * dirty state from one row into the next.
 */

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "enhance/precompute.hh"
#include "methodology/parameter_space.hh"
#include "sample/sampling.hh"
#include "sim/core.hh"
#include "trace/generator.hh"
#include "trace/rng.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace enhance = rigor::enhance;
namespace methodology = rigor::methodology;
namespace sample = rigor::sample;
namespace sim = rigor::sim;
namespace trace = rigor::trace;

namespace
{

constexpr std::uint64_t kInstructions = 4000;
constexpr unsigned kRows = 48;

/** Every statistic the core and its components expose, in one row. */
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
    const sim::MemorySystemStats &ms = m.stats();
    v.insert(v.end(),
             {ms.instructionFetches, ms.dataAccesses, ms.l2Accesses,
              ms.memoryTransfers, ms.busQueueCycles});
    v.insert(v.end(), {core.btb().stats().lookups,
                       core.btb().stats().misses});
    const sim::RasStats &r = core.ras().stats();
    v.insert(v.end(), {r.pushes, r.pops, r.overflows, r.underflows});
    for (const sim::FuPool *p :
         {&core.intAluPool(), &core.fpAluPool(), &core.intMultDivPool(),
          &core.fpMultDivPool()})
        v.push_back(p->stats().operations);
    return v;
}

/** How one row is run: plain, with warm-up, or sampled. */
enum class Mode
{
    Plain,
    Warmup,
    Sampled,
};

/** Run @p core over @p profile's stream the way @p mode says. */
void
runRow(sim::SuperscalarCore &core, const trace::WorkloadProfile &profile,
       Mode mode)
{
    trace::SyntheticTraceGenerator gen(profile, kInstructions);
    if (mode == Mode::Sampled) {
        sample::SamplingOptions sampling;
        sampling.enabled = true;
        sampling.unitInstructions = 400;
        sampling.warmupInstructions = 200;
        sampling.intervalInstructions = 1000;
        sample::runSampled(core, gen, sampling);
    } else {
        core.run(gen, mode == Mode::Warmup ? 1000 : 0);
    }
}

/** A precomputation table profiled on @p profile's stream. */
std::optional<enhance::PrecomputationTable>
hookFor(const trace::WorkloadProfile &profile, bool hooked)
{
    std::optional<enhance::PrecomputationTable> table;
    if (hooked) {
        trace::SyntheticTraceGenerator gen(profile, kInstructions);
        table.emplace(128);
        table->profileTrace(gen);
    }
    return table;
}

/** Blocks or entries of L1I, L1D, L2, I-TLB, D-TLB and BTB. */
std::array<std::uint32_t, 6>
capacities(const sim::ProcessorConfig &c)
{
    return {c.l1i.numBlocks(), c.l1d.numBlocks(), c.l2.numBlocks(),
            c.itlb.entries,    c.dtlbEntries,     c.btbEntries};
}

} // namespace

TEST(CoreReconfigure, MatchesFreshCoreAcrossPbRows)
{
    const doe::DesignMatrix design =
        doe::foldover(doe::pbDesignForFactors(methodology::numFactors));
    const char *const benchmarks[] = {"gzip", "mcf", "art", "equake",
                                      "twolf"};
    trace::Rng rng(18);

    std::optional<sim::SuperscalarCore> reused;
    std::optional<sim::ProcessorConfig> previous;
    std::array<unsigned, 6> grew{}, shrank{};
    unsigned perfect = 0, hooked_rows = 0;
    unsigned modes[3] = {};
    for (unsigned i = 0; i < kRows; ++i) {
        const std::size_t row = rng.nextBelow(design.numRows());
        const trace::WorkloadProfile &profile = trace::workloadByName(
            benchmarks[rng.nextBelow(std::size(benchmarks))]);
        const sim::ProcessorConfig config =
            methodology::configForLevels(design.row(row));
        const bool hooked = rng.nextBool(0.3);
        const auto mode = static_cast<Mode>(rng.nextBelow(3));
        ++modes[static_cast<int>(mode)];
        hooked_rows += hooked;
        perfect += config.bpred == sim::BranchPredictorKind::Perfect;
        if (previous) {
            const auto now = capacities(config);
            const auto before = capacities(*previous);
            for (std::size_t s = 0; s < now.size(); ++s) {
                grew[s] += now[s] > before[s];
                shrank[s] += now[s] < before[s];
            }
        }
        previous = config;

        auto reused_hook = hookFor(profile, hooked);
        if (reused)
            reused->reconfigure(config,
                                reused_hook ? &*reused_hook : nullptr);
        else
            reused.emplace(config, reused_hook ? &*reused_hook : nullptr);
        runRow(*reused, profile, mode);
        reused->detachHook();

        auto fresh_hook = hookFor(profile, hooked);
        sim::SuperscalarCore fresh(config,
                                   fresh_hook ? &*fresh_hook : nullptr);
        runRow(fresh, profile, mode);

        EXPECT_EQ(statsOf(*reused), statsOf(fresh))
            << "step " << i << ": design row " << row << " of "
            << profile.name;
    }

    // The seeded sequence must keep covering what it is meant to.
    for (std::size_t s = 0; s < grew.size(); ++s) {
        EXPECT_GT(grew[s], 0u) << "structure " << s;
        EXPECT_GT(shrank[s], 0u) << "structure " << s;
    }
    EXPECT_GT(perfect, 0u);
    EXPECT_LT(perfect, kRows);
    EXPECT_GT(hooked_rows, 0u);
    EXPECT_LT(hooked_rows, kRows);
    for (const unsigned count : modes)
        EXPECT_GT(count, 0u);
}

TEST(CoreReconfigure, ResetAfterReconfigureMatchesFreshCore)
{
    // reset() restores the reconfigured geometry, not the one the
    // core was built with.
    const sim::ProcessorConfig low =
        methodology::uniformConfig(doe::Level::Low);
    const sim::ProcessorConfig high =
        methodology::uniformConfig(doe::Level::High);
    const trace::WorkloadProfile &profile =
        trace::workloadByName("gcc");

    sim::SuperscalarCore core(high);
    runRow(core, profile, Mode::Plain);
    core.reconfigure(low);
    runRow(core, profile, Mode::Plain);
    core.reset();
    runRow(core, profile, Mode::Warmup);

    sim::SuperscalarCore fresh(low);
    runRow(fresh, profile, Mode::Warmup);
    EXPECT_EQ(statsOf(core), statsOf(fresh));
}

TEST(CoreReconfigure, RejectedConfigLeavesTheCoreReusable)
{
    sim::ProcessorConfig bad = methodology::uniformConfig(doe::Level::Low);
    bad.memPorts = 256;
    const sim::ProcessorConfig good =
        methodology::uniformConfig(doe::Level::High);
    const trace::WorkloadProfile &profile =
        trace::workloadByName("vpr-Place");

    sim::SuperscalarCore core(good);
    runRow(core, profile, Mode::Plain);
    EXPECT_THROW(core.reconfigure(bad), std::invalid_argument);
    core.reconfigure(good);
    runRow(core, profile, Mode::Plain);

    sim::SuperscalarCore fresh(good);
    runRow(fresh, profile, Mode::Plain);
    EXPECT_EQ(statsOf(core), statsOf(fresh));
}
