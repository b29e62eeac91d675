/**
 * @file
 * Shared pieces of the campaign benchmark: the two workloads, the
 * seeded benchmark suite, the campaign options every run uses, the
 * independent reference simulation the correctness checks compare
 * against, and the traced per-layer split (layers.cc).
 */

#ifndef RIGOR_PERFBENCH_BENCH_HH
#define RIGOR_PERFBENCH_BENCH_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "doe/design_matrix.hh"
#include "methodology/pb_experiment.hh"
#include "sim/config.hh"
#include "trace/workload_profile.hh"

namespace perfbench
{

/**
 * Engine worker threads. Fixed, so the figures do not depend on the host's core
 * count; two leaves headroom on a four-core host, which keeps a
 * preempted worker from stalling the whole batch.
 */
inline constexpr unsigned kThreads = 2;

/** One benchmark workload: how every campaign of a run is shaped. */
struct WorkloadSpec
{
    std::string name;
    /** Measured instructions per cell. */
    std::uint64_t instructions = 0;
};

/** The workload named @p name; throws std::invalid_argument. */
const WorkloadSpec &workloadSpec(const std::string &name);

/**
 * The 13-benchmark SPEC 2000 suite, each profile renamed
 * "<name>#s<seed>". The trace generator seeds itself from the name,
 * so every seed is a fresh realization of the same statistical
 * workloads: same work per cell, different instruction streams.
 */
std::vector<rigor::trace::WorkloadProfile> seededSuite(std::uint64_t seed);

/** The campaign options every campaign of @p spec runs with. */
rigor::methodology::PbExperimentOptions
campaignOptions(const WorkloadSpec &spec);

/** Run the campaign's pre-flight analysis over @p design for
 *  @p suite; throws on a rejected plan. */
void preflight(const WorkloadSpec &spec,
               std::span<const rigor::trace::WorkloadProfile> suite,
               const rigor::doe::DesignMatrix &design);

/** One cell of the answer key. */
struct ReferenceCell
{
    std::size_t bench = 0;
    std::size_t row = 0;
    /** Response simulated outside the engine. */
    double response = 0.0;
};

/** The 88-row foldover design every campaign simulates, built the way
 *  runPbExperiment builds it. */
rigor::doe::DesignMatrix campaignDesign();

/** Everything a run prepares before its first campaign. */
struct Prepared
{
    std::vector<rigor::trace::WorkloadProfile> suite;
    /** The 88-row foldover design the campaigns simulate. */
    rigor::doe::DesignMatrix design{1, 1};
    /**
     * Seeded cells simulated with the generator and core called
     * directly: no queue, cache, journal, or sandbox. A campaign's
     * response for each must equal it bit for bit.
     */
    std::vector<ReferenceCell> reference;
};

/** What a run builds before it times anything: the seeded suite, the
 *  design, and the answer key. */
Prepared prepare(const WorkloadSpec &spec, std::uint64_t seed);

/** SplitMix64 step: the benchmark's only source of seeded choices. */
std::uint64_t splitmix(std::uint64_t &state);

/** One named measurement as printed in the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Correctness bookkeeping of one run. */
struct Verdict
{
    bool correct = true;
    /** Simulation cells attempted. */
    std::uint64_t attempted = 0;
    /** Cells that produced no valid response. */
    std::uint64_t failed = 0;

    /** Record a failed check (printed to stderr). */
    void problem(const std::string &what);
};

/**
 * Check one finished campaign: a complete, finite, positive response
 * matrix, a full 43-factor rank table, and responses bit-identical to
 * @p expected_digest (set from the first campaign of the run).
 */
void checkCampaign(const rigor::methodology::PbExperimentResult &result,
                   std::size_t benchmarks, std::uint64_t &expected_digest,
                   Verdict &verdict);

/** Compare @p result against the answer key of @p prepared. */
void checkAgainstReference(
    const Prepared &prepared,
    const rigor::methodology::PbExperimentResult &result,
    Verdict &verdict);

/**
 * The traced run: one campaign with the library's metrics and trace
 * sinks attached, then each layer called on its own from here, with
 * a span around every call. Spans go to @p trace_path as a Chrome
 * trace; the returned metrics are the per-layer figures.
 */
std::vector<Metric> measureLayers(const WorkloadSpec &spec,
                                  std::uint64_t seed, double seconds,
                                  const std::string &scratch_dir,
                                  const std::string &trace_path,
                                  Verdict &verdict);

} // namespace perfbench

#endif // RIGOR_PERFBENCH_BENCH_HH
