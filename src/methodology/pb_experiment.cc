#include "methodology/pb_experiment.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <type_traits>

#include "check/preflight.hh"
#include "doe/effects.hh"
#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "exec/journal.hh"
#include "methodology/campaign_instrumentation.hh"
#include "methodology/parameter_space.hh"
#include "methodology/rank_table.hh"
#include "trace/generator.hh"

namespace rigor::methodology
{

std::vector<std::vector<double>>
PbExperimentResult::rankVectors() const
{
    std::vector<std::vector<double>> vectors;
    vectors.reserve(ranks.size());
    for (const std::vector<unsigned> &bench_ranks : ranks) {
        std::vector<double> v(bench_ranks.begin(), bench_ranks.end());
        vectors.push_back(std::move(v));
    }
    return vectors;
}

void
PbExperimentResult::dropBenchmarks(std::span<const std::string> names)
{
    const std::set<std::string> doomed(names.begin(), names.end());
    std::vector<std::size_t> keep;
    for (std::size_t b = 0; b < benchmarks.size(); ++b)
        if (!doomed.count(benchmarks[b]))
            keep.push_back(b);
    if (keep.size() == benchmarks.size())
        return; // nothing matched
    if (keep.empty())
        throw std::invalid_argument(
            "PbExperimentResult::dropBenchmarks: dropping every "
            "benchmark leaves nothing to aggregate");

    for (const std::string &name : benchmarks)
        if (doomed.count(name))
            droppedBenchmarks.push_back(name);
    std::sort(droppedBenchmarks.begin(), droppedBenchmarks.end());
    droppedBenchmarks.erase(std::unique(droppedBenchmarks.begin(),
                                        droppedBenchmarks.end()),
                            droppedBenchmarks.end());

    // Keep the surviving rows of every per-benchmark vector; the
    // ones not filled yet (effects, before the driver ranks) stay
    // empty.
    const auto select = [&keep](auto &rows) {
        if (rows.empty())
            return;
        std::remove_reference_t<decltype(rows)> kept;
        kept.reserve(keep.size());
        for (const std::size_t b : keep)
            kept.push_back(std::move(rows[b]));
        rows = std::move(kept);
    };
    select(benchmarks);
    select(responses);
    select(ciHalfWidths);
    select(effects);
    select(ranks);
    // Pre-effects callers (the experiment driver itself) drop before
    // anything is aggregated; nothing to recompute yet.
    if (!effects.empty())
        summaries = doe::aggregateRanks(factorNames(), effects);
    else
        summaries.clear();
}

double
PbExperimentResult::effectHalfWidth(std::size_t bench) const
{
    double sum_sq = 0.0;
    for (const double h : ciHalfWidths[bench])
        sum_sq += h * h;
    return std::sqrt(sum_sq);
}

double
simulateOnce(const trace::WorkloadProfile &profile,
             const sim::ProcessorConfig &config,
             std::uint64_t instructions, sim::ExecutionHook *hook,
             std::uint64_t warmup_instructions)
{
    trace::SyntheticTraceGenerator gen(
        profile, instructions + warmup_instructions);
    sim::SuperscalarCore core(config, hook);
    const sim::CoreStats stats = core.run(gen, warmup_instructions);
    return static_cast<double>(stats.measuredCycles());
}

namespace
{

/** One engine job per (benchmark, design row) pair. */
std::vector<exec::SimJob>
pbSimJobs(std::span<const trace::WorkloadProfile> workloads,
          const doe::DesignMatrix &design,
          const PbExperimentOptions &options)
{
    const std::size_t num_runs = design.numRows();
    std::vector<exec::SimJob> jobs;
    jobs.reserve(workloads.size() * num_runs);
    for (std::size_t bench = 0; bench < workloads.size(); ++bench) {
        const trace::WorkloadProfile &workload = workloads[bench];
        for (std::size_t run = 0; run < num_runs; ++run) {
            exec::SimJob job;
            job.workload = &workload;
            job.config = configForLevels(design.row(run));
            job.instructions = options.instructionsPerRun;
            job.warmupInstructions = options.warmupInstructions;
            job.sampling = options.campaign.sampling;
            if (options.hookFactory) {
                job.makeHook = [&factory = options.hookFactory,
                                &workload]() {
                    return factory(workload);
                };
                if (!options.hookId.empty())
                    job.hookId =
                        options.hookId + "/" + workload.name;
            }
            job.label = workload.name + ", design row " +
                        std::to_string(run);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

} // namespace

PbExperimentResult
runPbExperiment(std::span<const trace::WorkloadProfile> workloads,
                const PbExperimentOptions &options)
{
    detail::CampaignScope scope(options.campaign, options.hookFactory);
    return detail::runPbScreen(workloads, options, scope);
}

PbExperimentResult
detail::runPbScreen(std::span<const trace::WorkloadProfile> workloads,
                    const PbExperimentOptions &options,
                    CampaignScope &scope)
{
    if (workloads.empty())
        throw std::invalid_argument("runPbExperiment: no workloads");
    if (options.instructionsPerRun == 0)
        throw std::invalid_argument(
            "runPbExperiment: instructionsPerRun must be non-zero");

    const exec::CampaignOptions &campaign = options.campaign;
    const auto campaign_start = std::chrono::steady_clock::now();

    PbExperimentResult result;
    const doe::DesignMatrix base = doe::pbDesignForFactors(numFactors);
    result.design = campaign.foldover ? doe::foldover(base) : base;

    const std::size_t num_benches = workloads.size();
    const std::size_t num_runs = result.design.numRows();
    result.benchmarks.reserve(num_benches);
    for (const trace::WorkloadProfile &w : workloads)
        result.benchmarks.push_back(w.name);

    if (campaign.manifest) {
        obs::CampaignInfo info;
        info.experiment = options.experimentName;
        info.factors = result.design.numColumns();
        info.rows = num_runs;
        info.foldover = campaign.foldover;
        info.designDigest = detail::designDigest(result.design);
        info.workloads = result.benchmarks;
        info.instructionsPerRun = options.instructionsPerRun;
        info.warmupInstructions = options.warmupInstructions;
        info.sampling = campaign.sampling;
        campaign.manifest->beginCampaign(info);
    }

    // Mandatory pre-flight: prove the design is a balanced
    // orthogonal ±1 (foldover) matrix, audit the Tables 6-8
    // parameter space, and vet every workload profile and the run
    // lengths — before a single cycle is simulated.
    if (!campaign.skipPreflight) {
        detail::PhaseScope phase(campaign, "preflight");
        check::ExperimentPlan plan;
        plan.design = &result.design;
        plan.expectedFactors = numFactors;
        plan.designIsFolded = campaign.foldover;
        plan.workloads = workloads;
        plan.auditParameterSpace = true;
        plan.instructionsPerRun = options.instructionsPerRun;
        plan.warmupInstructions = options.warmupInstructions;
        plan.sampling = campaign.sampling;
        plan.remote = detail::remotePlanFor(campaign);
        check::preflightOrThrow(plan, "runPbExperiment");
    }

    // One engine job per (benchmark, design row) pair, run on the
    // campaign's engine and executor — the responses come back in
    // job order, so the result is thread-count independent.
    const std::vector<exec::SimJob> jobs =
        pbSimJobs(workloads, result.design, options);
    detail::DesignBatch batch;
    try {
        batch = detail::runDesignBatch(scope, campaign,
                                       result.benchmarks, num_runs,
                                       jobs, "screen");
    } catch (const exec::BatchAbort &) {
        // Infrastructure failure (journal I/O error, crash drill):
        // propagate unwrapped so a campaign driver can recognize it
        // and resume against the journal.
        throw;
    } catch (const std::exception &e) {
        throw std::runtime_error(
            std::string("runPbExperiment: simulation failed: ") +
            e.what());
    }
    result.responses = std::move(batch.responses);
    result.ciHalfWidths = std::move(batch.ciHalfWidths);

    // Quarantined cells (collect-failures mode) are not
    // statistically free: arbitrate drop-vs-abort before any effect
    // is computed, so an incomplete response column never reaches
    // the rank aggregation.
    if (!batch.quarantined.empty()) {
        check::CampaignAssessment assessment =
            check::assessCampaignValidity(
                result.benchmarks, num_runs, campaign.foldover,
                batch.quarantined, campaign.degradation);
        result.validity = assessment.sink;
        if (!assessment.passed())
            throw check::CampaignError("runPbExperiment",
                                       std::move(assessment.sink));
        result.dropBenchmarks(assessment.dropBenchmarks);
    }

    // Effects and per-benchmark ranks over the 43 real+dummy factors
    // (the design has exactly 43 columns for X = 44), computed only
    // for surviving benchmarks — their columns are complete.
    {
        detail::PhaseScope phase(campaign, "rank");
        const std::size_t survivors = result.benchmarks.size();
        result.effects.clear();
        result.ranks.clear();
        result.effects.reserve(survivors);
        result.ranks.reserve(survivors);
        for (std::size_t b = 0; b < survivors; ++b) {
            std::vector<double> all_effects = doe::computeEffects(
                result.design, result.responses[b]);
            all_effects.resize(numFactors);
            result.ranks.push_back(doe::rankByMagnitude(all_effects));
            result.effects.push_back(std::move(all_effects));
        }
    }

    {
        detail::PhaseScope phase(campaign, "aggregate");
        const std::vector<std::string> names = factorNames();
        result.summaries = doe::aggregateRanks(names, result.effects);
    }

    if (campaign.manifest) {
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - campaign_start;
        obs::SummaryRecord summary;
        summary.execution = batch.execution;
        summary.execution.wallSeconds = wall.count();
        summary.droppedBenchmarks = result.droppedBenchmarks;
        summary.rankTableDigest = rankTableDigest(result.summaries);
        campaign.manifest->addSummary(summary);
    }
    return result;
}

} // namespace rigor::methodology
