#include "methodology/adaptive_sampling.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "doe/ranking.hh"
#include "methodology/campaign_instrumentation.hh"
#include "methodology/parameter_space.hh"
#include "methodology/rank_table.hh"

namespace rigor::methodology
{

namespace
{

/** Ambiguity is judged only among the top aggregate factors — the
 *  part of the ranking the screen exists to get right. */
constexpr std::size_t kTopFactors = 10;

/** Ambiguous (benchmark, top-10 factor) pairs of the current table. */
struct Ambiguity
{
    std::set<std::string> benchmarks;
    std::size_t pairs = 0;
};

Ambiguity
findAmbiguity(const PbExperimentResult &result,
              const std::vector<std::string> &factor_names,
              const AdaptiveSamplingOptions &options)
{
    Ambiguity out;
    const std::vector<std::string> top = topFactorNames(
        result.summaries,
        std::min(kTopFactors, result.summaries.size()));
    std::vector<std::size_t> top_indices;
    top_indices.reserve(top.size());
    for (const std::string &name : top) {
        const auto it = std::find(factor_names.begin(),
                                  factor_names.end(), name);
        if (it != factor_names.end())
            top_indices.push_back(static_cast<std::size_t>(
                it - factor_names.begin()));
    }

    for (std::size_t b = 0; b < result.benchmarks.size(); ++b) {
        const double threshold =
            options.ambiguityFactor * result.effectHalfWidth(b);
        if (threshold <= 0.0)
            continue;
        const std::vector<double> &effects = result.effects[b];
        for (const std::size_t f : top_indices) {
            if (f < effects.size() &&
                std::abs(effects[f]) <= threshold) {
                ++out.pairs;
                out.benchmarks.insert(result.benchmarks[b]);
            }
        }
    }
    return out;
}

/** Overwrite the master's per-benchmark vectors with refined ones. */
void
splice(PbExperimentResult &master, const PbExperimentResult &refined)
{
    for (std::size_t s = 0; s < refined.benchmarks.size(); ++s) {
        const auto it = std::find(master.benchmarks.begin(),
                                  master.benchmarks.end(),
                                  refined.benchmarks[s]);
        if (it == master.benchmarks.end())
            continue;
        const std::size_t b = static_cast<std::size_t>(
            it - master.benchmarks.begin());
        master.responses[b] = refined.responses[s];
        master.ciHalfWidths[b] = refined.ciHalfWidths[s];
        master.effects[b] = refined.effects[s];
        master.ranks[b] = refined.ranks[s];
    }
    master.summaries =
        doe::aggregateRanks(factorNames(), master.effects);
}

} // namespace

AdaptiveSamplingResult
runAdaptivePbExperiment(
    std::span<const trace::WorkloadProfile> workloads,
    const AdaptiveSamplingOptions &options)
{
    if (!options.base.campaign.sampling.enabled)
        throw std::invalid_argument(
            "runAdaptivePbExperiment: campaign.sampling must be "
            "enabled; full runs carry no CI to refine against");
    if (options.maxRounds == 0)
        throw std::invalid_argument(
            "runAdaptivePbExperiment: maxRounds must be >= 1");

    PbExperimentOptions opts = options.base;
    detail::CampaignScope scope(opts.campaign);

    AdaptiveSamplingResult out;
    const std::vector<std::string> names = factorNames();

    // Round 0: the full sampled screen.
    out.result =
        detail::runPbScreen(workloads, opts, scope, "pb_screen");
    {
        AdaptiveRound round;
        round.sampling = opts.campaign.sampling;
        round.simulatedBenchmarks = out.result.benchmarks;
        out.rounds.push_back(std::move(round));
    }

    for (unsigned round = 0;; ++round) {
        const Ambiguity ambiguity =
            findAmbiguity(out.result, names, options);
        out.rounds.back().ambiguousPairs = ambiguity.pairs;
        if (ambiguity.pairs == 0) {
            out.converged = true;
            break;
        }
        if (round + 1 >= options.maxRounds)
            break;

        // Lengthen the schedule: halve the fast-forward interval so
        // each stream yields ~2x the measured units, clamped so the
        // detailed phase still fits one period.
        sample::SamplingOptions &sampling = opts.campaign.sampling;
        const std::uint64_t detail = sampling.warmupInstructions +
                                     sampling.unitInstructions;
        const std::uint64_t next = std::max(
            detail, sampling.intervalInstructions / 2);
        if (next == sampling.intervalInstructions)
            break; // cannot refine further
        sampling.intervalInstructions = next;

        std::vector<trace::WorkloadProfile> subset;
        for (const trace::WorkloadProfile &w : workloads)
            if (ambiguity.benchmarks.count(w.name))
                subset.push_back(w);
        if (subset.empty())
            break;

        const PbExperimentResult refined = detail::runPbScreen(
            subset, opts, scope,
            "pb_screen/refine-" + std::to_string(round + 1));
        splice(out.result, refined);
        // Keep the round's quarantines and drops on record; a
        // benchmark it dropped keeps the previous round's numbers.
        for (const check::Diagnostic &d : refined.validity.diagnostics())
            out.result.validity.report(d);

        AdaptiveRound record;
        record.sampling = sampling;
        record.simulatedBenchmarks = refined.benchmarks;
        out.rounds.push_back(std::move(record));
    }
    return out;
}

} // namespace rigor::methodology
