#include "methodology/workflow.hh"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>

#include "doe/ranking.hh"
#include "methodology/campaign_instrumentation.hh"
#include "obs/json.hh"
#include "stats/yates.hh"

namespace rigor::methodology
{

Factor
factorByName(const std::string &name)
{
    for (const ParameterDef &def : parameterDefinitions())
        if (def.name == name)
            return def.factor;
    throw std::invalid_argument("factorByName: unknown factor " + name);
}

std::string
WorkflowResult::toString() const
{
    std::ostringstream os;
    os << "Step 1 - critical parameters (PB screen, "
       << screening.design.numRows() << " runs x "
       << screening.benchmarks.size() << " workloads):\n";
    for (std::size_t i = 0; i < criticalFactors.size(); ++i)
        os << "  " << i + 1 << ". "
           << factorName(criticalFactors[i]) << "\n";
    os << "Step 2 - non-critical parameters: typical commercial "
          "values (ProcessorConfig defaults).\n";
    os << "Step 3 - full factorial over the critical set ("
       << (1u << criticalFactors.size()) << " configurations):\n";
    os << stats::formatAnovaTable(sensitivity);
    os << "Step 4 - directions:\n";
    for (const ParameterRecommendation &rec : recommendations) {
        os << "  " << rec.name << ": high value "
           << (rec.cyclesSavedHighVsLow >= 0.0 ? "saves" : "costs")
           << " " << std::abs(rec.cyclesSavedHighVsLow)
           << " cycles on average ("
           << 100.0 * rec.variationExplained << "% of variation)\n";
    }
    if (!largestInteraction.empty())
        os << "Largest interaction: " << largestInteraction << " ("
           << 100.0 * largestInteractionShare << "% of variation)\n";
    if (!screening.droppedBenchmarks.empty()) {
        os << "Degraded: screen dropped";
        for (const std::string &b : screening.droppedBenchmarks)
            os << " " << b;
        os << " (quarantined failures; rank sums cover "
           << screening.benchmarks.size() << " benchmarks)\n";
    }
    if (!factorialDroppedWorkloads.empty()) {
        os << "Degraded: factorial averaging dropped";
        for (const std::string &w : factorialDroppedWorkloads)
            os << " " << w;
        os << " (quarantined failures)\n";
    }
    os << "Execution: " << execution.toString() << "\n";
    return os.str();
}

WorkflowResult
runRecommendedWorkflow(
    std::span<const trace::WorkloadProfile> workloads,
    const WorkflowOptions &options)
{
    if (options.maxCriticalParameters == 0 ||
        options.maxCriticalParameters > 12)
        throw std::invalid_argument(
            "runRecommendedWorkflow: maxCriticalParameters must be in "
            "[1, 12]");

    WorkflowResult result;
    const exec::CampaignOptions &campaign = options.base.campaign;

    // One engine and one executor for both simulation phases: the
    // screen's workers (threads or sandboxes) are reused by
    // the step-3 factorial, and any configuration the factorial
    // shares with the screen is served from the run cache. The
    // campaign's journal makes every completed run of either phase
    // durable across process restarts.
    detail::CampaignScope scope(campaign);

    // ----- Step 1: PB screening -----
    result.screening =
        detail::runPbScreen(workloads, options.base, scope, "pb_screen");

    // Critical set: up to the largest sum-of-ranks gap, capped, and
    // never including dummy factors (they are the noise floor).
    const std::size_t cut = doe::significanceCutoff(
        result.screening.summaries,
        std::min<std::size_t>(options.maxCriticalParameters + 2, 15));
    const std::size_t take =
        std::min({cut, options.maxCriticalParameters,
                  result.screening.summaries.size()});
    for (std::size_t i = 0;
         i < result.screening.summaries.size() &&
         result.criticalFactors.size() < take;
         ++i) {
        const std::string &name =
            result.screening.summaries[i].name;
        const Factor f = factorByName(name);
        if (f == Factor::DummyFactor1 || f == Factor::DummyFactor2)
            continue;
        result.criticalFactors.push_back(f);
    }

    // ----- Step 3: full factorial over the critical set -----
    const std::size_t k = result.criticalFactors.size();
    std::vector<std::string> names;
    names.reserve(k);
    for (Factor f : result.criticalFactors)
        names.push_back(factorName(f));

    // All 2^k x workloads cells go through the shared engine as one
    // parallel batch, benchmark-major like the screen (all cells of
    // workload 0, then workload 1, ...) so each engine worker replays
    // one workload's stream across consecutive cells; the per-cell
    // responses are then averaged in a fixed order so the result is
    // thread-count independent.
    const std::size_t num_cells = std::size_t{1} << k;
    std::vector<sim::ProcessorConfig> cell_configs;
    cell_configs.reserve(num_cells);
    for (std::uint32_t t = 0; t < (1u << k); ++t) {
        std::vector<std::pair<Factor, doe::Level>> overrides;
        overrides.reserve(k);
        for (std::size_t i = 0; i < k; ++i)
            overrides.emplace_back(result.criticalFactors[i],
                                   (t >> i) & 1 ? doe::Level::High
                                                : doe::Level::Low);
        cell_configs.push_back(configWithOverrides(overrides));
    }
    std::vector<exec::SimJob> jobs;
    jobs.reserve(num_cells * workloads.size());
    for (const trace::WorkloadProfile &w : workloads) {
        for (std::size_t t = 0; t < num_cells; ++t) {
            exec::SimJob job;
            job.workload = &w;
            job.config = cell_configs[t];
            job.instructions = options.base.instructionsPerRun;
            job.warmupInstructions = options.base.warmupInstructions;
            job.label =
                w.name + ", factorial cell " + std::to_string(t);
            jobs.push_back(std::move(job));
        }
    }

    // The factorial is its own campaign in the manifest: k factors,
    // 2^k rows, no foldover, identified by a digest of the critical
    // factor set.
    obs::CampaignInfo info;
    info.experiment = "workflow_factorial";
    info.factors = k;
    info.rows = num_cells;
    std::string serialized = "factorial:";
    for (const std::string &name : names)
        serialized += name + ";";
    info.designDigest = obs::digestHex(obs::fnv1a(serialized));
    for (const trace::WorkloadProfile &w : workloads)
        info.workloads.push_back(w.name);
    info.instructionsPerRun = options.base.instructionsPerRun;
    info.warmupInstructions = options.base.warmupInstructions;

    // Step-3 pre-flight: every factorial cell's configuration must
    // satisfy the Tables 6-8 invariants before the batch runs (the
    // screen already vetted the workloads and run lengths).
    check::ExperimentPlan plan;
    plan.configs.reserve(jobs.size());
    for (const exec::SimJob &job : jobs)
        plan.configs.push_back(&job.config);

    const auto factorial_start = std::chrono::steady_clock::now();
    const detail::DesignBatch cells = detail::runDesignBatch(
        scope, campaign, "runRecommendedWorkflow (step 3)", info, plan,
        "factorial_preflight", jobs, "factorial",
        {{"cells", std::to_string(num_cells)}});

    // Quarantined factorial cells: a workload missing from one cell
    // would skew that cell's average against its neighbors, so the
    // whole workload is dropped from every cell (or the workflow
    // aborts), arbitrated through the campaign analyzer.
    std::set<std::size_t> dropped_w;
    if (!cells.quarantined.empty()) {
        check::CampaignAssessment assessment =
            check::assessFactorialValidity(
                info.workloads, num_cells, cells.quarantined,
                campaign.degradation);
        result.factorialValidity = assessment.sink;
        if (!assessment.passed())
            throw check::CampaignError(
                "runRecommendedWorkflow (step 3)",
                std::move(assessment.sink));
        result.factorialDroppedWorkloads =
            std::move(assessment.dropBenchmarks);
        for (std::size_t w = 0; w < info.workloads.size(); ++w)
            for (const std::string &name :
                 result.factorialDroppedWorkloads)
                if (info.workloads[w] == name)
                    dropped_w.insert(w);
    }
    const std::size_t surviving =
        workloads.size() - dropped_w.size();

    {
        detail::PhaseScope phase(campaign, "anova");
        std::vector<double> responses;
        responses.reserve(num_cells);
        for (std::size_t t = 0; t < num_cells; ++t) {
            double total = 0.0;
            for (std::size_t w = 0; w < workloads.size(); ++w) {
                if (dropped_w.count(w))
                    continue;
                total += cells.responses[w][t];
            }
            responses.push_back(total /
                                static_cast<double>(surviving));
        }
        result.sensitivity = stats::analyzeFactorial(names, responses);
    }

    // ----- Step 4: directions from the main effects -----
    for (std::size_t i = 0; i < k; ++i) {
        const stats::AnovaRow &row =
            result.sensitivity.rows[(std::size_t{1} << i) - 1];
        ParameterRecommendation rec;
        rec.factor = result.criticalFactors[i];
        rec.name = names[i];
        // Effect is (high - low) on cycles; saving = -effect.
        rec.cyclesSavedHighVsLow = -row.effect;
        rec.variationExplained = row.variationExplained;
        result.recommendations.push_back(std::move(rec));
    }
    std::stable_sort(result.recommendations.begin(),
                     result.recommendations.end(),
                     [](const ParameterRecommendation &a,
                        const ParameterRecommendation &b) {
                         return a.variationExplained >
                                b.variationExplained;
                     });

    // Largest interaction (order >= 2).
    for (const stats::AnovaRow &row :
         result.sensitivity.rowsBySignificance()) {
        if (stats::contrastOrder(row.mask) >= 2) {
            result.largestInteraction = row.label;
            result.largestInteractionShare = row.variationExplained;
            break;
        }
    }
    result.execution = scope.executed();

    if (campaign.manifest) {
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - factorial_start;
        obs::SummaryRecord summary;
        summary.execution = cells.execution;
        summary.execution.wallSeconds = wall.count();
        summary.droppedBenchmarks = result.factorialDroppedWorkloads;
        campaign.manifest->addSummary(summary);
    }
    return result;
}

} // namespace rigor::methodology
