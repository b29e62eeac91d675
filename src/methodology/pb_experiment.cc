#include "methodology/pb_experiment.hh"

#include <algorithm>
#include <set>
#include <stdexcept>

#include <chrono>

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
    if (doomed.empty())
        return;

    std::size_t kept = 0;
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        if (doomed.count(benchmarks[b])) {
            droppedBenchmarks.push_back(benchmarks[b]);
            continue;
        }
        if (kept != b) {
            benchmarks[kept] = std::move(benchmarks[b]);
            if (b < responses.size())
                responses[kept] = std::move(responses[b]);
            if (b < effects.size())
                effects[kept] = std::move(effects[b]);
            if (b < ranks.size())
                ranks[kept] = std::move(ranks[b]);
        }
        ++kept;
    }
    if (kept == benchmarks.size())
        return; // nothing matched
    if (kept == 0)
        throw std::invalid_argument(
            "PbExperimentResult::dropBenchmarks: dropping every "
            "benchmark leaves nothing to aggregate");

    benchmarks.resize(kept);
    if (responses.size() > kept)
        responses.resize(kept);
    if (effects.size() > kept)
        effects.resize(kept);
    if (ranks.size() > kept)
        ranks.resize(kept);
    std::sort(droppedBenchmarks.begin(), droppedBenchmarks.end());
    droppedBenchmarks.erase(std::unique(droppedBenchmarks.begin(),
                                        droppedBenchmarks.end()),
                            droppedBenchmarks.end());
    // Pre-effects callers (the experiment driver itself) drop before
    // anything is aggregated; nothing to recompute yet.
    if (!effects.empty())
        summaries = doe::aggregateRanks(factorNames(), effects);
    else
        summaries.clear();
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
                    CampaignScope &scope, exec::JobObserver observer)
{
    if (workloads.empty())
        throw std::invalid_argument("runPbExperiment: no workloads");
    if (options.instructionsPerRun == 0)
        throw std::invalid_argument(
            "runPbExperiment: instructionsPerRun must be non-zero");

    const exec::CampaignOptions &campaign = options.campaign;
    const auto campaign_start = std::chrono::steady_clock::now();

    PbExperimentResult result;
    doe::DesignMatrix base = options.design
                                 ? *options.design
                                 : doe::pbDesignForFactors(numFactors);
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
        plan.replication = campaign.replication;
        plan.remote = detail::remotePlanFor(campaign);
        check::preflightOrThrow(plan, "runPbExperiment");
    }

    // One engine job per (benchmark, design row) pair, run on the
    // campaign's engine and executor — the responses come back in
    // job order, so the result is thread-count independent.
    const std::vector<exec::SimJob> jobs =
        pbSimJobs(workloads, result.design, options);

    exec::SimulationEngine &engine = scope.engine();
    scope.observe(detail::bothObservers(
        detail::manifestCellObserver(campaign.manifest,
                                     result.benchmarks, num_runs),
        std::move(observer)));
    const exec::ProgressSnapshot progress_before =
        engine.progress().snapshot();

    exec::BatchResult batch;
    try {
        detail::PhaseScope phase(campaign, "screen");
        phase.span().arg("jobs", std::to_string(jobs.size()));
        batch = engine.run(jobs, campaign.faultPolicy);
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
    // The caller's observer may not outlive this call.
    scope.observe({});

    result.responses.assign(num_benches,
                            std::vector<double>(num_runs, 0.0));
    for (std::size_t bench = 0; bench < num_benches; ++bench)
        for (std::size_t run = 0; run < num_runs; ++run)
            result.responses[bench][run] =
                batch.responses[bench * num_runs + run];

    // Quarantined cells (collect-failures mode) are not
    // statistically free: arbitrate drop-vs-abort before any effect
    // is computed, so an incomplete response column never reaches
    // the rank aggregation.
    std::vector<std::string> drop;
    if (!batch.complete()) {
        std::vector<check::QuarantinedCell> cells;
        cells.reserve(batch.failures.size());
        for (const exec::JobFailure &f : batch.failures) {
            check::QuarantinedCell cell;
            cell.benchmark = result.benchmarks[f.jobIndex / num_runs];
            cell.row = f.jobIndex % num_runs;
            cell.attempts = f.attempts;
            cell.kind = exec::toString(f.kind);
            cell.message = f.message;
            cells.push_back(std::move(cell));
        }
        check::CampaignAssessment assessment =
            check::assessCampaignValidity(
                result.benchmarks, num_runs, campaign.foldover, cells,
                campaign.degradation);
        result.validity = assessment.sink;
        if (!assessment.passed())
            throw check::CampaignError("runPbExperiment",
                                       std::move(assessment.sink));
        drop = std::move(assessment.dropBenchmarks);
    }

    if (!drop.empty()) {
        result.dropBenchmarks(drop);
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
        obs::SummaryRecord summary = detail::summaryFromProgress(
            progress_before, engine.progress().snapshot(),
            wall.count());
        summary.droppedBenchmarks = result.droppedBenchmarks;
        summary.rankTableDigest = rankTableDigest(result.summaries);
        campaign.manifest->addSummary(summary);
    }
    return result;
}

} // namespace rigor::methodology
