#include "methodology/enhancement_analysis.hh"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "check/rule_ids.hh"
#include "methodology/campaign_instrumentation.hh"

namespace rigor::methodology
{

const RankShift &
EnhancementComparison::shift(const std::string &name) const
{
    for (const RankShift &s : shifts)
        if (s.name == name)
            return s;
    throw std::invalid_argument(
        "EnhancementComparison::shift: no factor named " + name);
}

RankShift
EnhancementComparison::biggestReliefAmongTop(
    std::span<const doe::FactorRankSummary> base_summaries,
    std::size_t top_k) const
{
    if (base_summaries.empty())
        throw std::invalid_argument(
            "biggestReliefAmongTop: empty base summaries");

    const std::size_t k = std::min(top_k, base_summaries.size());
    const RankShift *best = nullptr;
    for (std::size_t i = 0; i < k; ++i) {
        const RankShift &s = shift(base_summaries[i].name);
        if (!best || s.delta() > best->delta())
            best = &s;
    }
    return *best;
}

std::string
EnhancementComparison::toString(std::size_t max_rows) const
{
    std::size_t name_width = 10;
    for (const RankShift &s : shifts)
        name_width = std::max(name_width, s.name.size() + 1);

    std::ostringstream os;
    os << std::left << std::setw(static_cast<int>(name_width))
       << "Parameter" << std::right << std::setw(10) << "SumBefore"
       << std::setw(10) << "SumAfter" << std::setw(8) << "Delta"
       << '\n';
    std::size_t rows = 0;
    for (const RankShift &s : shifts) {
        if (max_rows != 0 && rows++ >= max_rows)
            break;
        os << std::left << std::setw(static_cast<int>(name_width))
           << s.name << std::right << std::setw(10) << s.sumBefore
           << std::setw(10) << s.sumAfter << std::setw(8)
           << std::showpos << s.delta() << std::noshowpos << '\n';
    }
    return os.str();
}

EnhancementComparison
compareRankTables(std::span<const doe::FactorRankSummary> base,
                  std::span<const doe::FactorRankSummary> enhanced)
{
    if (base.size() != enhanced.size())
        throw std::invalid_argument(
            "compareRankTables: factor count mismatch");

    // One name -> summary map instead of a linear rescan per factor;
    // duplicate names are rejected here rather than silently matched
    // first-wins.
    std::unordered_map<std::string, const doe::FactorRankSummary *>
        by_name;
    by_name.reserve(enhanced.size());
    for (const doe::FactorRankSummary &e : enhanced)
        if (!by_name.emplace(e.name, &e).second)
            throw std::invalid_argument(
                "compareRankTables: duplicate factor in enhanced "
                "table: " +
                e.name);

    EnhancementComparison cmp;
    cmp.shifts.reserve(base.size());
    for (const doe::FactorRankSummary &b : base) {
        const auto it = by_name.find(b.name);
        if (it == by_name.end())
            throw std::invalid_argument(
                "compareRankTables: enhanced table lacks factor " +
                b.name);
        cmp.shifts.push_back(
            {b.name, b.sumOfRanks, it->second->sumOfRanks});
    }

    std::stable_sort(cmp.shifts.begin(), cmp.shifts.end(),
                     [](const RankShift &a, const RankShift &b) {
                         return std::abs(a.delta()) > std::abs(b.delta());
                     });
    return cmp;
}

EnhancementExperimentResult
runEnhancementExperiment(
    std::span<const trace::WorkloadProfile> workloads,
    const PbExperimentOptions &options,
    const HookFactory &hook_factory, const std::string &hook_id)
{
    if (!hook_factory)
        throw std::invalid_argument(
            "runEnhancementExperiment: hook_factory is required");
    if (hook_id.empty())
        throw std::invalid_argument(
            "runEnhancementExperiment: hook_id is required");

    const exec::CampaignOptions &campaign = options.campaign;

    // Both legs share one engine and one executor: the workers, the
    // run cache (a base leg already simulated through campaign.engine
    // is free), and the progress counters. A sandbox pool running
    // the enhanced leg needs the same hook factory to rebuild
    // the enhancement hook from the shipped profile.
    detail::CampaignScope scope(campaign);

    EnhancementExperimentResult result;

    {
        detail::PhaseScope phase(campaign, "base_leg");
        result.base = detail::runPbScreen(workloads, options, scope,
                                          "enhancement_base");
    }

    {
        detail::PhaseScope phase(campaign, "enhanced_leg");
        result.enhanced =
            detail::runPbScreen(workloads, options, scope,
                                "enhancement_enhanced", hook_factory,
                                hook_id);
    }

    // A sum-of-ranks delta is only meaningful over a common
    // population.
    PbExperimentResult *const legs[] = {&result.base, &result.enhanced};
    if (detail::keepCommonBenchmarks(legs, result.validity,
                                     "runEnhancementExperiment"))
        result.validity.warning(
            check::rules::kCampaignPairedDropMismatch,
            "the base and enhanced legs dropped different benchmark "
            "sets; the comparison is restricted to the " +
                std::to_string(result.base.benchmarks.size()) +
                " benchmark(s) both legs completed");
    result.droppedBenchmarks = result.base.droppedBenchmarks;

    result.comparison = compareRankTables(result.base.summaries,
                                          result.enhanced.summaries);
    result.execution = scope.executed();
    return result;
}

} // namespace rigor::methodology
