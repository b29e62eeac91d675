/**
 * Golden fixture: the exact outputs of the timing core.
 *
 * Every other simulator test checks a qualitative property (a bigger
 * cache does not hurt, warm-up is excluded, thread counts agree). A
 * hot-path rewrite could shift every response and still pass them
 * all. This file pins the exact numbers instead:
 *
 *  - the full CoreStats of a small (workload, config) matrix that
 *    covers all five branch predictor kinds, all three replacement
 *    policies, the precomputation hook on and off, and sampled and
 *    full runs;
 *  - an FNV-1a digest of the bits of the whole 88 x 13 foldover PB
 *    response matrix at a reduced run length.
 *
 * A change that alters simulated behaviour fails here loudly. If the
 * change is intended, re-bless on purpose: each failure prints the
 * actual row (or digest) in the literal form the tables below use.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "enhance/precompute.hh"
#include "methodology/parameter_space.hh"
#include "methodology/pb_experiment.hh"
#include "obs/json.hh"
#include "sample/sampling.hh"
#include "sim/core.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace enhance = rigor::enhance;
namespace methodology = rigor::methodology;
namespace obs = rigor::obs;
namespace sample = rigor::sample;
namespace sim = rigor::sim;
namespace trace = rigor::trace;

namespace
{

constexpr std::uint64_t kInstructions = 20000;

/** One (workload, config) cell of the fixture matrix. */
struct Case
{
    const char *workload;
    doe::Level level;
    sim::BranchPredictorKind bpred;
    sim::ReplacementKind replacement;
    bool hook;
    bool sampled;
    std::uint64_t warmup;
};

constexpr Case kCases[] = {
    {"gzip", doe::Level::Low, sim::BranchPredictorKind::TwoLevel,
     sim::ReplacementKind::LRU, false, false, 2000},
    {"mcf", doe::Level::High, sim::BranchPredictorKind::Bimodal,
     sim::ReplacementKind::FIFO, false, false, 0},
    {"gcc", doe::Level::Low, sim::BranchPredictorKind::LocalTwoLevel,
     sim::ReplacementKind::Random, false, false, 1000},
    {"art", doe::Level::High, sim::BranchPredictorKind::Tournament,
     sim::ReplacementKind::LRU, true, false, 0},
    {"parser", doe::Level::Low, sim::BranchPredictorKind::Perfect,
     sim::ReplacementKind::FIFO, true, false, 1000},
    {"vortex", doe::Level::High, sim::BranchPredictorKind::Tournament,
     sim::ReplacementKind::Random, false, true, 0},
    {"equake", doe::Level::Low, sim::BranchPredictorKind::TwoLevel,
     sim::ReplacementKind::LRU, true, true, 0},
    {"twolf", doe::Level::High, sim::BranchPredictorKind::Bimodal,
     sim::ReplacementKind::Random, false, false, 500},
};

/** What one case produced: the core's counters plus, for sampled
 *  runs, the unit count and the bits of the extrapolated cycles. */
struct Golden
{
    std::uint64_t instructions;
    std::uint64_t cycles;
    std::uint64_t branches;
    std::uint64_t branchMispredicts;
    std::uint64_t btbMisfetches;
    std::uint64_t rasMispredicts;
    std::uint64_t loads;
    std::uint64_t stores;
    std::uint64_t intercepted;
    std::uint64_t warmupInstructions;
    std::uint64_t warmupCycles;
    std::uint64_t sampleUnits;
    std::uint64_t estimatedCyclesBits;

    bool operator==(const Golden &) const = default;
};

constexpr Golden kGolden[] = {
    {22000, 257872, 3136, 1155, 617, 2, 3755, 1949, 0, 2000, 33095, 0, 0x0ull},
    {20000, 107247, 3123, 321, 611, 0, 5388, 1543, 0, 0, 0, 0, 0x0ull},
    {21000, 448483, 3621, 592, 880, 0, 4421, 2299, 0, 1000, 32112, 0, 0x0ull},
    {20000, 67589, 1642, 210, 390, 0, 5885, 1037, 350, 0, 0, 0, 0x0ull},
    {21000, 486232, 3168, 0, 0, 0, 5017, 1819, 1365, 1000, 36783, 0, 0x0ull},
    {5000, 11095, 734, 217, 133, 0, 1246, 681, 0, 0, 0, 5, 0x40e6d90000000000ull},
    {5000, 153866, 561, 250, 113, 0, 1310, 325, 121, 0, 0, 5, 0x4121d84000000000ull},
    {20500, 28038, 3193, 536, 623, 0, 4011, 1428, 0, 500, 1487, 0, 0x0ull},
};

static_assert(std::size(kCases) == std::size(kGolden));

/** FNV-1a digest of the 88 x 13 response matrix (see below). */
constexpr std::uint64_t kResponseMatrixDigest = 0xc9a79a5ab6764929ull;

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

sim::ProcessorConfig
configFor(const Case &c)
{
    sim::ProcessorConfig config = methodology::uniformConfig(c.level);
    config.bpred = c.bpred;
    config.l1i.replacement = c.replacement;
    config.l1d.replacement = c.replacement;
    config.l2.replacement = c.replacement;
    config.validate();
    return config;
}

Golden
runCase(const Case &c)
{
    const trace::WorkloadProfile &profile =
        trace::workloadByName(c.workload);
    trace::SyntheticTraceGenerator gen(profile,
                                       kInstructions + c.warmup);

    std::optional<enhance::PrecomputationTable> table;
    if (c.hook) {
        table.emplace(128);
        table->profileTrace(gen);
    }
    sim::SuperscalarCore core(configFor(c),
                              table ? &*table : nullptr);

    Golden out{};
    if (c.sampled) {
        sample::SamplingOptions sampling;
        sampling.enabled = true;
        sampling.unitInstructions = 500;
        sampling.warmupInstructions = 500;
        sampling.intervalInstructions = 4000;
        const sample::SampleSummary summary =
            sample::runSampled(core, gen, sampling);
        out.sampleUnits = summary.units;
        out.estimatedCyclesBits = bitsOf(summary.estimatedCycles);
    } else {
        core.run(gen, c.warmup);
    }
    const sim::CoreStats &s = core.stats();
    out.instructions = s.instructions;
    out.cycles = s.cycles;
    out.branches = s.branches;
    out.branchMispredicts = s.branchMispredicts;
    out.btbMisfetches = s.btbMisfetches;
    out.rasMispredicts = s.rasMispredicts;
    out.loads = s.loads;
    out.stores = s.stores;
    out.intercepted = s.interceptedInstructions;
    out.warmupInstructions = s.warmupInstructions;
    out.warmupCycles = s.warmupCycles;
    return out;
}

std::string
literal(const Golden &g)
{
    std::ostringstream os;
    os << "{" << g.instructions << ", " << g.cycles << ", "
       << g.branches << ", " << g.branchMispredicts << ", "
       << g.btbMisfetches << ", " << g.rasMispredicts << ", "
       << g.loads << ", " << g.stores << ", " << g.intercepted
       << ", " << g.warmupInstructions << ", " << g.warmupCycles
       << ", " << g.sampleUnits << ", 0x" << std::hex
       << g.estimatedCyclesBits << "ull},";
    return os.str();
}

} // namespace

TEST(GoldenFixture, CoreStatsMatchThePinnedMatrix)
{
    // The matrix must keep covering every predictor kind, every
    // replacement policy, the hook both ways, and both run modes.
    std::array<bool, 5> kinds{};
    std::array<bool, 3> policies{};
    bool hook[2] = {}, sampled[2] = {};
    for (const Case &c : kCases) {
        kinds[static_cast<std::size_t>(c.bpred)] = true;
        policies[static_cast<std::size_t>(c.replacement)] = true;
        hook[c.hook] = sampled[c.sampled] = true;
    }
    for (const bool seen : kinds)
        EXPECT_TRUE(seen);
    for (const bool seen : policies)
        EXPECT_TRUE(seen);
    EXPECT_TRUE(hook[0] && hook[1] && sampled[0] && sampled[1]);

    for (std::size_t i = 0; i < std::size(kCases); ++i) {
        const Golden actual = runCase(kCases[i]);
        EXPECT_TRUE(actual == kGolden[i])
            << "case " << i << " (" << kCases[i].workload
            << ") drifted; actual row:\n    " << literal(actual);
    }
}

TEST(GoldenFixture, ResponseMatrixDigestIsPinned)
{
    methodology::PbExperimentOptions options;
    options.instructionsPerRun = 1000;
    options.campaign.threads = 2;
    const auto suite = trace::spec2000Workloads();
    const methodology::PbExperimentResult result =
        methodology::runPbExperiment(suite, options);

    ASSERT_EQ(result.benchmarks.size(), 13u);
    std::string bytes;
    for (const std::vector<double> &row : result.responses) {
        ASSERT_EQ(row.size(), 88u);
        for (const double response : row) {
            std::uint64_t bits = bitsOf(response);
            for (int b = 0; b < 8; ++b, bits >>= 8)
                bytes += static_cast<char>(bits & 0xff);
        }
    }
    const std::uint64_t digest = obs::fnv1a(bytes);
    EXPECT_EQ(digest, kResponseMatrixDigest)
        << "response matrix drifted; actual digest 0x"
        << obs::digestHex(digest) << "ull";
}
