/**
 * @file
 * perfbench_driver — the campaign benchmark.
 *
 *     perfbench_driver --workload screen --seed 7 --seconds 30 \
 *                      --trace 0 --scratch-dir .bench_build/run
 *
 * Runs whole 88-row foldover Plackett-Burman screens over the
 * 13-benchmark suite for --seconds, one campaign at a time (a closed
 * loop), and checks every one. With --trace 0 it reports the
 * end-to-end figures (campaign wall time, peak memory, set-up time);
 * with --trace 1 the per-layer split of layers.cc. The last line of
 * stdout is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. Exit code 2
 * on a usage error or a run that could not complete; no result line
 * is printed then.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>

#include "bench.hh"
#include "check/preflight.hh"
#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "methodology/parameter_space.hh"
#include "obs/json.hh"
#include "trace/workloads.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

namespace
{

/** Why each workload exists is recorded in BENCHMARK.json. */
std::vector<WorkloadSpec>
makeWorkloads()
{
    std::vector<WorkloadSpec> all;

    // tools/campaign's default run length.
    WorkloadSpec screen;
    screen.name = "screen";
    screen.instructions = 20000;
    all.push_back(screen);

    WorkloadSpec short_cells;
    short_cells.name = "short";
    short_cells.instructions = 1000;
    all.push_back(short_cells);

    return all;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t
responseDigest(const rigor::methodology::PbExperimentResult &result)
{
    std::uint64_t digest = rigor::obs::fnv1a({});
    for (const std::vector<double> &column : result.responses)
        for (const double response : column)
            digest = rigor::obs::fnv1a(
                std::string_view(
                    reinterpret_cast<const char *>(&response),
                    sizeof response),
                digest);
    return digest;
}

std::string
resultLine(const Verdict &verdict, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += verdict.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(verdict.attempted);
    out += ", \"failed\": " + std::to_string(verdict.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (!std::isfinite(metrics[i].value))
            throw std::runtime_error("metric " + metrics[i].name +
                                     " is not a finite number");
        if (i != 0)
            out += ", ";
        rigor::obs::appendJsonString(out, metrics[i].name);
        out += ": {\"value\": " + rigor::obs::jsonNumber(metrics[i].value) +
               ", \"unit\": ";
        rigor::obs::appendJsonString(out, metrics[i].unit);
        out += "}";
    }
    out += "}}";
    return out;
}

/**
 * The end-to-end run. Campaigns run back to back, each with a private
 * engine so no run is served from a previous campaign's cache, until
 * --seconds have passed. Before each one the campaign's own set-up
 * (design and pre-flight) is timed kSetupReps times, so the set-up
 * median samples the host across the whole window, as the campaign
 * median does; a single burst of sub-millisecond set-ups at the start
 * read up to 1.8x apart between runs. Both figures are medians, so a
 * short stall of the host moves neither.
 */
std::vector<Metric>
measureEndToEnd(const WorkloadSpec &spec, std::uint64_t seed,
                double seconds, Verdict &verdict)
{
    constexpr unsigned kSetupReps = 8;
    constexpr std::size_t kMinCampaigns = 3;

    const Prepared prepared = prepare(spec, seed);
    const std::vector<rigor::trace::WorkloadProfile> &suite =
        prepared.suite;

    const rigor::methodology::PbExperimentOptions options =
        campaignOptions(spec);

    std::vector<double> walls;
    std::vector<double> setup_seconds;
    std::uint64_t digest = 0;
    const Clock::time_point window = Clock::now();
    while (walls.size() < kMinCampaigns ||
           secondsSince(window) < seconds) {
        for (unsigned rep = 0; rep < kSetupReps; ++rep) {
            const Clock::time_point start = Clock::now();
            preflight(spec, suite, campaignDesign());
            setup_seconds.push_back(secondsSince(start));
        }
        const Clock::time_point start = Clock::now();
        const rigor::methodology::PbExperimentResult result =
            rigor::methodology::runPbExperiment(suite, options);
        walls.push_back(secondsSince(start));

        checkCampaign(result, suite.size(), digest, verdict);
        if (walls.size() == 1)
            checkAgainstReference(prepared, result, verdict);
    }

    rusage usage{};
    if (::getrusage(RUSAGE_SELF, &usage) != 0)
        throw std::runtime_error("getrusage failed");
    std::fprintf(stderr,
                 "perfbench: %s: %zu campaigns in %.3f s (median %.4f "
                 "s), set-up median %.6f s\n",
                 spec.name.c_str(), walls.size(), secondsSince(window),
                 median(walls), median(setup_seconds));
    return {
        {"campaign_s", median(walls), "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
         "MB"},
        {"setup_s", median(setup_seconds), "s"},
    };
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string scratchDir;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value);
            else if (flag == "--scratch-dir")
                args.scratchDir = value;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return argc % 2 == 1 && !args.workload.empty() &&
           args.seconds > 0.0 && (args.trace == 0 || args.trace == 1) &&
           !args.scratchDir.empty();
}

} // namespace

const WorkloadSpec &
workloadSpec(const std::string &name)
{
    static const std::vector<WorkloadSpec> all = makeWorkloads();
    for (const WorkloadSpec &spec : all)
        if (spec.name == name)
            return spec;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<rigor::trace::WorkloadProfile>
seededSuite(std::uint64_t seed)
{
    const auto all = rigor::trace::spec2000Workloads();
    std::vector<rigor::trace::WorkloadProfile> suite(all.begin(),
                                                     all.end());
    for (rigor::trace::WorkloadProfile &profile : suite)
        profile.name += "#s" + std::to_string(seed);
    return suite;
}

rigor::methodology::PbExperimentOptions
campaignOptions(const WorkloadSpec &spec)
{
    rigor::methodology::PbExperimentOptions options;
    options.instructionsPerRun = spec.instructions;
    options.campaign.threads = kThreads;
    return options;
}

void
preflight(const WorkloadSpec &spec,
          std::span<const rigor::trace::WorkloadProfile> suite,
          const rigor::doe::DesignMatrix &design)
{
    rigor::check::ExperimentPlan plan;
    plan.design = &design;
    plan.expectedFactors = rigor::methodology::numFactors;
    plan.designIsFolded = true;
    plan.workloads = suite;
    plan.auditParameterSpace = true;
    plan.instructionsPerRun = spec.instructions;
    rigor::check::preflightOrThrow(plan, "perfbench");
}

rigor::doe::DesignMatrix
campaignDesign()
{
    return rigor::doe::foldover(
        rigor::doe::pbDesignForFactors(rigor::methodology::numFactors));
}

Prepared
prepare(const WorkloadSpec &spec, std::uint64_t seed)
{
    constexpr unsigned kReferenceCells = 16;
    Prepared prepared;
    prepared.suite = seededSuite(seed);
    prepared.design = campaignDesign();
    std::uint64_t state = seed ^ 0x7265666572656e63ULL;
    for (unsigned i = 0; i < kReferenceCells; ++i) {
        ReferenceCell cell;
        cell.bench = splitmix(state) % prepared.suite.size();
        cell.row = splitmix(state) % prepared.design.numRows();
        cell.response = rigor::methodology::simulateOnce(
            prepared.suite[cell.bench],
            rigor::methodology::configForLevels(
                prepared.design.row(cell.row)),
            spec.instructions);
        prepared.reference.push_back(cell);
    }
    return prepared;
}

std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
Verdict::problem(const std::string &what)
{
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void
checkCampaign(const rigor::methodology::PbExperimentResult &result,
              std::size_t benchmarks, std::uint64_t &expected_digest,
              Verdict &verdict)
{
    const std::size_t rows = result.design.numRows();
    verdict.attempted += benchmarks * rows;
    if (result.benchmarks.size() != benchmarks || rows != 88) {
        verdict.failed += benchmarks * rows;
        verdict.problem("campaign returned " +
                        std::to_string(result.benchmarks.size()) +
                        " benchmarks x " + std::to_string(rows) +
                        " rows");
        return;
    }
    std::uint64_t invalid = 0;
    for (const std::vector<double> &column : result.responses)
        for (const double response : column)
            if (!std::isfinite(response) || response <= 0.0)
                ++invalid;
    verdict.failed += invalid;
    if (invalid != 0)
        verdict.problem(std::to_string(invalid) +
                        " cells without a positive finite response");
    if (result.summaries.size() != rigor::methodology::numFactors)
        verdict.problem("rank table has " +
                        std::to_string(result.summaries.size()) +
                        " factors");
    const std::uint64_t digest = responseDigest(result);
    if (expected_digest == 0)
        expected_digest = digest;
    else if (digest != expected_digest)
        verdict.problem("responses differ between campaigns of one run");
}

void
checkAgainstReference(
    const Prepared &prepared,
    const rigor::methodology::PbExperimentResult &result,
    Verdict &verdict)
{
    for (const ReferenceCell &cell : prepared.reference) {
        const double got = result.responses[cell.bench][cell.row];
        if (got != cell.response)
            verdict.problem(prepared.suite[cell.bench].name + " row " +
                            std::to_string(cell.row) + ": campaign " +
                            rigor::obs::jsonNumber(got) +
                            " != reference " +
                            rigor::obs::jsonNumber(cell.response));
    }
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args;
    if (!perfbench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 --scratch-dir DIR\n",
                     argv[0]);
        return 2;
    }
    // A probe peer that dies must surface as EPIPE, not end the run.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        const perfbench::WorkloadSpec &spec =
            perfbench::workloadSpec(args.workload);
        std::filesystem::create_directories(args.scratchDir);
        perfbench::Verdict verdict;
        const std::vector<perfbench::Metric> metrics =
            args.trace == 0
                ? perfbench::measureEndToEnd(spec, args.seed, args.seconds,
                                             verdict)
                : perfbench::measureLayers(
                      spec, args.seed, args.seconds, args.scratchDir,
                      args.scratchDir + "/trace-" + spec.name + "-" +
                          std::to_string(args.seed) + ".json",
                      verdict);
        std::printf("%s\n", perfbench::resultLine(verdict, metrics).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
