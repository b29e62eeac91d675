/**
 * Golden fixture: the exact outputs of the timing core.
 *
 * Every other simulator test checks a qualitative property (a bigger
 * cache does not hurt, warm-up is excluded, thread counts agree). A
 * hot-path rewrite could shift every response and still pass them
 * all. This file pins the exact numbers instead:
 *
 *  - the full CoreStats of a small (workload, level) matrix at the
 *    uniform Table 6-8 configurations: both predictor values (2-Level
 *    at Low, Perfect at High), the precomputation hook on and off,
 *    and sampled and full runs;
 *  - FNV-1a digests of the bits of the whole 88 x 13 foldover PB
 *    response matrix: at a reduced run length, at the screen length
 *    tools/campaign and perfbench run (20k instructions per cell),
 *    and at a short length measured after a warm-up (which pins the
 *    warm-up latch of the replayed path).
 *
 * A change that alters simulated behaviour fails here loudly. If the
 * change is intended, re-bless on purpose: each failure prints the
 * actual row (or digest) in the literal form the tables below use.
 */

#include <gtest/gtest.h>

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

/** One cell of the fixture matrix: a workload on the configuration
 *  with every factor at @p level. */
struct Case
{
    const char *workload;
    doe::Level level;
    bool hook;
    bool sampled;
    std::uint64_t warmup;
};

constexpr Case kCases[] = {
    {"gzip", doe::Level::Low, false, false, 2000},
    {"mcf", doe::Level::High, false, false, 0},
    {"gcc", doe::Level::Low, false, false, 1000},
    {"art", doe::Level::High, true, false, 0},
    {"parser", doe::Level::Low, true, false, 1000},
    {"vortex", doe::Level::High, false, true, 0},
    {"equake", doe::Level::Low, true, true, 0},
    {"twolf", doe::Level::High, false, false, 500},
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
    {20000, 103771, 3123, 0, 0, 0, 5388, 1543, 0, 0, 0, 0, 0x0ull},
    {21000, 458414, 3621, 1340, 724, 0, 4421, 2299, 0, 1000, 32169, 0, 0x0ull},
    {20000, 66130, 1642, 0, 0, 0, 5885, 1037, 350, 0, 0, 0, 0x0ull},
    {21000, 506249, 3168, 1177, 663, 0, 5017, 1819, 1365, 1000, 38454, 0, 0x0ull},
    {5000, 9287, 734, 0, 0, 0, 1246, 681, 0, 0, 0, 5, 0x40e271ffffffffffull},
    {5000, 153866, 561, 250, 113, 0, 1310, 325, 121, 0, 0, 5, 0x4121d84000000000ull},
    {20500, 23004, 3193, 0, 0, 0, 4011, 1428, 0, 500, 1157, 0, 0x0ull},
};

static_assert(std::size(kCases) == std::size(kGolden));

/** FNV-1a digests of the 88 x 13 response matrix (see below). */
constexpr std::uint64_t kResponseMatrixDigest = 0xc9a79a5ab6764929ull;
constexpr std::uint64_t kScreenLengthDigest = 0x72dbfa350ae1fbb3ull;
constexpr std::uint64_t kWarmedDigest = 0xb2eea690c7dac1ddull;

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
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
    sim::SuperscalarCore core(methodology::uniformConfig(c.level),
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
    // The matrix must keep covering both levels (so both predictor
    // values), the hook both ways, and both run modes.
    bool high[2] = {}, hook[2] = {}, sampled[2] = {};
    for (const Case &c : kCases)
        high[c.level == doe::Level::High] = hook[c.hook] =
            sampled[c.sampled] = true;
    EXPECT_TRUE(high[0] && high[1] && hook[0] && hook[1] &&
                sampled[0] && sampled[1]);

    for (std::size_t i = 0; i < std::size(kCases); ++i) {
        const Golden actual = runCase(kCases[i]);
        EXPECT_TRUE(actual == kGolden[i])
            << "case " << i << " (" << kCases[i].workload
            << ") drifted; actual row:\n    " << literal(actual);
    }
}

/** FNV-1a digest of the bits of the 88 x 13 foldover PB response
 *  matrix at @p instructions measured after @p warmup. */
std::uint64_t
responseMatrixDigest(std::uint64_t instructions, std::uint64_t warmup)
{
    methodology::PbExperimentOptions options;
    options.instructionsPerRun = instructions;
    options.warmupInstructions = warmup;
    options.campaign.threads = 2;
    const auto suite = trace::spec2000Workloads();
    const methodology::PbExperimentResult result =
        methodology::runPbExperiment(suite, options);

    EXPECT_EQ(result.benchmarks.size(), 13u);
    std::string bytes;
    for (const std::vector<double> &row : result.responses) {
        EXPECT_EQ(row.size(), 88u);
        for (const double response : row) {
            std::uint64_t bits = bitsOf(response);
            for (int b = 0; b < 8; ++b, bits >>= 8)
                bytes += static_cast<char>(bits & 0xff);
        }
    }
    return obs::fnv1a(bytes);
}

TEST(GoldenFixture, ResponseMatrixDigestIsPinned)
{
    const std::uint64_t digest = responseMatrixDigest(1000, 0);
    EXPECT_EQ(digest, kResponseMatrixDigest)
        << "response matrix drifted; actual digest 0x"
        << obs::digestHex(digest) << "ull";
}

TEST(GoldenFixture, ScreenLengthDigestIsPinned)
{
    // tools/campaign's default and perfbench's screen workload: mixes
    // of fully associative TLBs/BTB with direct-mapped caches that the
    // uniform configurations above never reach.
    const std::uint64_t digest = responseMatrixDigest(20000, 0);
    EXPECT_EQ(digest, kScreenLengthDigest)
        << "screen-length response matrix drifted; actual digest 0x"
        << obs::digestHex(digest) << "ull";
}

TEST(GoldenFixture, WarmedDigestIsPinned)
{
    const std::uint64_t digest = responseMatrixDigest(1000, 1000);
    EXPECT_EQ(digest, kWarmedDigest)
        << "warmed response matrix drifted; actual digest 0x"
        << obs::digestHex(digest) << "ull";
}
