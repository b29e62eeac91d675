/**
 * @file
 * BENCH_*.json perf-trajectory reporter.
 *
 * Every PR that touches a hot path needs a baseline to beat; the
 * convention is one BENCH_<pr>.json at the repo root per PR, holding
 * the wall time and throughput of a canonical reduced campaign. This
 * writer renders that record from the engine's progress counters so
 * the campaign CLI (--bench-out) and the table harnesses emit
 * identical schemas.
 */

#ifndef RIGOR_OBS_BENCH_REPORT_HH
#define RIGOR_OBS_BENCH_REPORT_HH

#include <cstdint>
#include <string>

namespace rigor::obs
{

/** One benchmark trajectory point. */
struct BenchReport
{
    /** Scenario name, e.g. "pb_screen". */
    std::string name;
    double wallSeconds = 0.0;
    std::uint64_t runsTotal = 0;
    std::uint64_t runsCompleted = 0;
    double runsPerSecond = 0.0;
    std::uint64_t simulatedInstructions = 0;
    /** Simulated instructions per wall second, in millions. */
    double mips = 0.0;
    unsigned threads = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t journalHits = 0;
    /** Sampled-simulation comparison block; the five fields below
     *  are rendered only when this is true. */
    bool sampled = false;
    /** Detailed-instruction throughput of the full-run baseline. */
    double fullMips = 0.0;
    /** Detailed-instruction throughput of the sampled campaign. */
    double sampledMips = 0.0;
    /** Full detailed instructions / sampled detailed instructions
     *  (the sampling speed-up in simulated work). */
    double detailedInstructionRatio = 0.0;
    /** Mean relative CPI CI half-width across sampled runs. */
    double sampleRelError = 0.0;
    /** Mean measured units per sampled run. */
    double sampleUnits = 0.0;
};

/** Render @p report as a single JSON object. */
std::string toJson(const BenchReport &report);

/** Write the report to @p path; throws std::runtime_error on I/O
 *  failure. */
void writeBenchReport(const std::string &path,
                      const BenchReport &report);

} // namespace rigor::obs

#endif // RIGOR_OBS_BENCH_REPORT_HH
