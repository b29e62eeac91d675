#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "cli_options.hh"

namespace exec = rigor::exec;
namespace tools = rigor::tools;

namespace
{

/** Run parseFlags over "test <argv_tail...>". */
bool
parse(const tools::FlagTable &table, std::vector<std::string> argv_tail,
      const std::function<void(const std::string &)> &positional = {})
{
    std::vector<std::string> storage;
    storage.push_back("test");
    for (std::string &arg : argv_tail)
        storage.push_back(std::move(arg));
    std::vector<char *> argv;
    for (std::string &arg : storage)
        argv.push_back(arg.data());
    return tools::parseFlags(static_cast<int>(argv.size()), argv.data(),
                             "test", table, positional);
}

/** Feed one "--flag value..." spelling through campaign's table. */
bool
parse(tools::CampaignSetup &setup, std::vector<std::string> argv_tail)
{
    return parse(tools::campaignFlags(setup), std::move(argv_tail));
}

/** parse(), returning what it printed on stderr. */
std::string
parseErrors(tools::CampaignSetup &setup,
            std::vector<std::string> argv_tail)
{
    testing::internal::CaptureStderr();
    parse(setup, std::move(argv_tail));
    return testing::internal::GetCapturedStderr();
}

} // namespace

// ----- Strict numeric parsing -----

TEST(CliParsers, RejectsNegativeNumbers)
{
    // strtoull would silently wrap "-1" to 2^64-1; the strict parsers
    // must refuse a leading sign instead.
    std::uint64_t u64 = 0;
    EXPECT_FALSE(tools::parseUint64("-1", u64));
    unsigned u = 0;
    EXPECT_FALSE(tools::parseUnsigned("-5", u));
    std::size_t size = 0;
    EXPECT_FALSE(tools::parseSize("-1", size));
    EXPECT_TRUE(tools::parseUint64("42", u64));
    EXPECT_EQ(u64, 42u);
}

TEST(CliParsers, RejectsTrailingGarbageAndEmpty)
{
    std::uint64_t u64 = 0;
    EXPECT_FALSE(tools::parseUint64("12x", u64));
    EXPECT_FALSE(tools::parseUint64("", u64));
    EXPECT_FALSE(tools::parseUint64("+3", u64));
}

TEST(CliParsers, FaultKindNamesRoundTrip)
{
    for (int k = static_cast<int>(exec::FaultKind::Transient);
         k <= static_cast<int>(exec::FaultKind::KillWorker); ++k) {
        const auto kind = static_cast<exec::FaultKind>(k);
        exec::FaultKind parsed = exec::FaultKind::Transient;
        ASSERT_TRUE(tools::parseFaultKind(exec::toString(kind), parsed))
            << exec::toString(kind);
        EXPECT_EQ(parsed, kind);
    }
    exec::FaultKind parsed = exec::FaultKind::Transient;
    EXPECT_FALSE(tools::parseFaultKind("unknown", parsed));
    EXPECT_FALSE(tools::parseFaultKind("", parsed));
}

// ----- The flag engine -----

TEST(CliFlags, AcceptsBothValueSpellings)
{
    unsigned n = 0;
    std::string path;
    const tools::FlagTable table = {
        {"--n", "N", "", tools::number(n)},
        {"--path", "PATH", "", tools::text(path)},
    };
    EXPECT_TRUE(parse(table, {"--n", "7", "--path=a=b"}));
    EXPECT_EQ(n, 7u);
    EXPECT_EQ(path, "a=b");
    EXPECT_TRUE(parse(table, {"--n=8", "--path", "-x"}));
    EXPECT_EQ(n, 8u);
    EXPECT_EQ(path, "-x");
}

TEST(CliFlags, ReportsEachKindOfMistake)
{
    bool on = false;
    unsigned n = 0;
    const tools::FlagTable table = {
        {"--on", "", "", tools::set(on)},
        {"--n", "N", "", tools::number(n, tools::Bound::Positive)},
    };
    const auto errors = [&table](std::vector<std::string> args) {
        testing::internal::CaptureStderr();
        EXPECT_FALSE(parse(table, std::move(args)));
        return testing::internal::GetCapturedStderr();
    };
    EXPECT_EQ(errors({"--n"}), "test: --n needs an argument\n");
    EXPECT_EQ(errors({"--on=1"}), "test: --on takes no value\n");
    EXPECT_EQ(errors({"--n", "5x"}), "test: bad --n value 5x\n");
    EXPECT_EQ(errors({"--n=0"}),
              "test: bad --n value 0 (must be positive)\n");
    EXPECT_EQ(errors({"--off"}), "test: unknown option --off\n");
    EXPECT_EQ(errors({"file"}), "test: unknown option file\n");
    EXPECT_EQ(errors({"--help"}), "");
    EXPECT_EQ(errors({"-h"}), "");
    EXPECT_FALSE(on);
}

TEST(CliFlags, PositionalsSeeEveryNonFlagArgument)
{
    bool design = false;
    std::vector<std::string> files;
    const tools::FlagTable table = {
        {"--design", "", "", tools::set(design)},
    };
    EXPECT_TRUE(parse(table, {"a.csv", "--design", "b.spec", ""},
                      [&files](const std::string &path) {
                          files.push_back(path);
                      }));
    EXPECT_TRUE(design);
    EXPECT_EQ(files, (std::vector<std::string>{"a.csv", "b.spec", ""}));
}

TEST(CliFlags, UsageListsEveryFlag)
{
    tools::CampaignSetup setup;
    const tools::FlagTable table = tools::campaignFlags(setup);
    testing::internal::CaptureStderr();
    EXPECT_EQ(tools::printUsage("campaign", "[options]", table), 2);
    const std::string usage = testing::internal::GetCapturedStderr();
    EXPECT_EQ(usage.rfind("usage: campaign [options]\n", 0), 0u);
    for (const tools::Flag &flag : table)
        EXPECT_NE(usage.find("  " + flag.name + " "), std::string::npos)
            << flag.name;
    EXPECT_NE(usage.find("  --help "), std::string::npos);
    std::size_t start = 0;
    while (start < usage.size()) {
        const std::size_t end = usage.find('\n', start);
        EXPECT_LE(end - start, 79u) << usage.substr(start, end - start);
        start = end + 1;
    }
}

TEST(CliFlags, IsolationAcceptsThreadOrProcess)
{
    tools::CampaignSetup setup;
    const tools::FlagTable table = tools::campaignFlags(setup);
    EXPECT_FALSE(parse(table, {"--isolation", "remote"}));
    EXPECT_FALSE(parse(table, {"--isolation", "fleet"}));
    EXPECT_EQ(setup.isolation, tools::Isolation::Thread);
    EXPECT_TRUE(parse(table, {"--isolation=process"}));
    EXPECT_EQ(setup.isolation, tools::Isolation::Process);
    EXPECT_TRUE(parse(table, {"--isolation", "thread"}));
    EXPECT_EQ(setup.isolation, tools::Isolation::Thread);
}

// ----- Campaign defaults and derived flags -----

TEST(CampaignCliOptions, KeepsTheCliDefaults)
{
    tools::CampaignSetup options;
    EXPECT_TRUE(parse(options, {}));
    EXPECT_EQ(options.run.instructionsPerRun, 20000u);
    EXPECT_EQ(options.run.campaign.faultPolicy.attempts(), 1u);
    EXPECT_EQ(options.isolation, tools::Isolation::Thread);
}

TEST(CampaignCliOptions, DerivesRetries)
{
    tools::CampaignSetup options;
    EXPECT_TRUE(parse(options, {"--retries", "2", "--threads=2",
                                "--degrade=drop-benchmark",
                                "--inject-label", "mcf:1:hang"}));
    EXPECT_EQ(options.run.campaign.faultPolicy.maxAttempts, 3u);
    EXPECT_EQ(options.run.campaign.threads, 2u);
    EXPECT_EQ(options.run.campaign.degradation,
              rigor::check::DegradationMode::DropBenchmark);
    EXPECT_EQ(options.drills.plannedFaults(), 1u);
    EXPECT_NE(parseErrors(options, {"--instructions", "12x"})
                  .find("bad --instructions value 12x"),
              std::string::npos);
}

// ----- Resource-cap flags -----

TEST(CampaignCliOptions, RejectsZeroMemLimit)
{
    tools::CampaignSetup options;
    EXPECT_FALSE(parse(options, {"--mem-limit-mb", "0"}));
    EXPECT_FALSE(parse(options, {"--mem-limit-mb=0"}));
}

TEST(CampaignCliOptions, RejectsNegativeMemLimit)
{
    tools::CampaignSetup options;
    EXPECT_FALSE(parse(options, {"--mem-limit-mb", "-1"}));
}

TEST(CampaignCliOptions, RejectsZeroOrNegativeHardDeadline)
{
    tools::CampaignSetup options;
    EXPECT_FALSE(parse(options, {"--hard-deadline-ms", "0"}));
    EXPECT_FALSE(parse(options, {"--hard-deadline-ms", "-100"}));
}

TEST(CampaignCliOptions, AcceptsPositiveCaps)
{
    tools::CampaignSetup options;
    EXPECT_TRUE(parse(options, {"--mem-limit-mb", "128"}));
    EXPECT_EQ(options.sandbox.memLimitMb, 128u);
    EXPECT_TRUE(parse(options, {"--hard-deadline-ms=1000"}));
    EXPECT_EQ(options.sandbox.hardDeadline,
              std::chrono::milliseconds(1000));
}

// ----- Sampling flags -----

TEST(CampaignCliOptions, ParsesSamplingFlags)
{
    tools::CampaignSetup options;
    EXPECT_TRUE(parse(options, {"--sample"}));
    EXPECT_TRUE(parse(options, {"--sample-unit", "500"}));
    EXPECT_TRUE(parse(options, {"--sample-warmup=1500"}));
    EXPECT_TRUE(parse(options, {"--sample-interval", "8000"}));
    EXPECT_TRUE(parse(options, {"--sample-rel-error", "0.1"}));
    EXPECT_TRUE(parse(options, {"--sample-confidence", "0.99"}));

    const exec::CampaignOptions &campaign = options.run.campaign;
    EXPECT_TRUE(campaign.sampling.enabled);
    EXPECT_EQ(campaign.sampling.unitInstructions, 500u);
    EXPECT_EQ(campaign.sampling.warmupInstructions, 1500u);
    EXPECT_EQ(campaign.sampling.intervalInstructions, 8000u);
    EXPECT_DOUBLE_EQ(campaign.sampling.targetRelativeError, 0.1);
    EXPECT_DOUBLE_EQ(campaign.sampling.confidence, 0.99);
}

TEST(CampaignCliOptions, SamplingDisabledByDefault)
{
    tools::CampaignSetup options;
    EXPECT_TRUE(parse(options, {}));
    EXPECT_FALSE(options.run.campaign.sampling.enabled);
}

TEST(CampaignCliOptions, RejectsDegenerateSamplingValues)
{
    tools::CampaignSetup options;
    EXPECT_FALSE(parse(options, {"--sample-unit", "0"}));
    EXPECT_FALSE(parse(options, {"--sample-interval=0"}));
    EXPECT_FALSE(parse(options, {"--sample-rel-error", "0"}));
    EXPECT_FALSE(parse(options, {"--sample-rel-error", "1.5"}));
    EXPECT_FALSE(parse(options, {"--sample-confidence", "0"}));
    EXPECT_FALSE(parse(options, {"--sample=on"}));
}

TEST(CampaignCliOptions, UnknownFlagIsNotMine)
{
    tools::CampaignSetup options;
    EXPECT_EQ(parseErrors(options, {"--frobnicate"}),
              "test: unknown option --frobnicate\n");
}

// ----- Replication / bootstrap flags -----

TEST(CampaignCliOptions, ParsesReplicationFlags)
{
    tools::CampaignSetup options;
    EXPECT_TRUE(parse(options, {"--replicates", "5"}));
    EXPECT_TRUE(parse(options, {"--bootstrap-iters=800"}));
    EXPECT_TRUE(parse(options, {"--bootstrap-seed", "12345"}));
    EXPECT_TRUE(parse(options, {"--stability-out", "report.json"}));
    EXPECT_EQ(options.stabilityOut, "report.json");

    EXPECT_EQ(options.replication.replicates, 5u);
    EXPECT_EQ(options.replication.bootstrap.iterations, 800u);
    EXPECT_EQ(options.replication.bootstrap.seed, 12345u);
}

TEST(CampaignCliOptions, ReplicationDisabledByDefault)
{
    tools::CampaignSetup options;
    EXPECT_TRUE(parse(options, {}));
    EXPECT_FALSE(options.replication.enabled());
}

TEST(CampaignCliOptions, RejectsDegenerateReplicationValues)
{
    tools::CampaignSetup options;
    EXPECT_FALSE(parse(options, {"--replicates", "-2"}));
    EXPECT_FALSE(parse(options, {"--bootstrap-iters", "0"}));
    EXPECT_FALSE(parse(options, {"--bootstrap-seed", "nope"}));
}
