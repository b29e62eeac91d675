#include "check/rule_table.hh"

#include <array>
#include <cstring>

#include "check/rule_ids.hh"

namespace rigor::check
{

namespace
{

using rules::kCampaignBenchmarkDropped;
using rules::kCampaignBenchmarkIncomplete;
using rules::kCampaignCellQuarantined;
using rules::kCampaignFoldoverPairBroken;
using rules::kCampaignNoCompleteBenchmarks;
using rules::kCampaignPairedDropMismatch;
using rules::kCampaignUnderReplicated;

constexpr std::array<RuleInfo, 39> kRules{{
    // ----- design_check -----
    {rules::kDesignRunsNotMultipleOfFour, Severity::Error,
     "PB run count is divisible by 4"},
    {rules::kDesignTooManyFactors, Severity::Error,
     "at most runs - 1 factors (PB saturation)"},
    {rules::kDesignFactorCount, Severity::Error,
     "columns match the declared factor count"},
    {rules::kDesignColumnBalance, Severity::Error,
     "equal +1/-1 counts per column"},
    {rules::kDesignOrthogonality, Severity::Error,
     "zero dot product for every column pair"},
    {rules::kDesignDuplicateColumn, Severity::Error,
     "no identical or negated column pairs"},
    {rules::kDesignFoldoverComplement, Severity::Error,
     "row R/2+r is the sign-flip of row r"},
    {rules::kDesignFoldoverOddRuns, Severity::Error,
     "folded designs have even run counts"},
    // ----- config_check -----
    {rules::kConfigInvalid, Severity::Error,
     "ProcessorConfig::validate() fallback"},
    {rules::kConfigLsqRatio, Severity::Error,
     "LSQ/ROB ratio in (0, 1] (Table 6 shading)"},
    {rules::kConfigCacheGeometry, Severity::Error,
     "power-of-two cache size/block/sets"},
    {rules::kConfigL2BlockCoversL1, Severity::Error,
     "L2 blocks at least L1-block sized"},
    {rules::kSpaceLevelPairEqual, Severity::Error,
     "a factor's levels actually differ"},
    {rules::kSpaceLevelOrder, Severity::Error,
     "low level is the performance-adverse side"},
    {rules::kSpaceDummyNotInert, Severity::Error,
     "dummy factors leave the config unchanged"},
    // ----- workload_check -----
    {rules::kWorkloadInvalid, Severity::Error,
     "WorkloadProfile::validate() fallback"},
    {rules::kWorkloadMixMass, Severity::Error,
     "instruction-mix probability mass at most 1"},
    {rules::kWorkloadPatternMass, Severity::Error,
     "pointer-chase + strided mass at most 1"},
    {rules::kWorkloadFpMix, Severity::Error,
     "FP flag consistent with FP instruction mass"},
    {rules::kWorkloadNoMemoryOps, Severity::Warning,
     "loads/stores present for memory-hierarchy factors"},
    {rules::kWorkloadDuplicateName, Severity::Error,
     "unique workload names per experiment"},
    {rules::kRunNoInstructions, Severity::Error,
     "non-zero measured window"},
    {rules::kRunWarmupDominates, Severity::Warning,
     "warm-up at most 10x the measured window"},
    {rules::kRunWindowBelowHotCode, Severity::Warning,
     "measured window covers the hot code"},
    {rules::kSampleScheduleInvalid, Severity::Error,
     "sampling schedule internally consistent"},
    {rules::kSampleNoUnits, Severity::Error,
     "stream long enough for at least one sample unit"},
    {rules::kSampleFewUnits, Severity::Warning,
     "schedule yields at least ~30 units (CLT)"},
    // ----- campaign_check -----
    {kCampaignCellQuarantined, Severity::Warning,
     "a (benchmark, row) cell failed terminally"},
    {kCampaignFoldoverPairBroken, Severity::Note,
     "a quarantined row's foldover mirror survived"},
    {kCampaignBenchmarkDropped, Severity::Warning,
     "degradation dropped a benchmark whole"},
    {kCampaignBenchmarkIncomplete, Severity::Error,
     "abort mode refused an incomplete benchmark"},
    {kCampaignNoCompleteBenchmarks, Severity::Error,
     "every benchmark degraded; no rank table possible"},
    {kCampaignPairedDropMismatch, Severity::Warning,
     "enhancement legs dropped different benchmark sets"},
    // ----- stability_check -----
    {kCampaignUnderReplicated, Severity::Error,
     "replicated campaign meets the configured replicate floor"},
    {rules::kStatsRankCiOverlap, Severity::Warning,
     "adjacent top-K rank CIs do not overlap"},
    {rules::kStatsRankFlipInsideNoise, Severity::Error,
     "reported rank inversions resolve above the flip threshold"},
    {rules::kStatsCiComposeMissing, Severity::Error,
     "sampling CIs composed with replication CIs"},
    {rules::kStatsReportSyntax, Severity::Error,
     "stability report parses as --stability-out JSON"},
    // ----- rigor_lint -----
    {rules::kLintUnreadableFile, Severity::Error,
     "linted files can be opened and read"},
}};

} // namespace

std::span<const RuleInfo>
ruleTable()
{
    return kRules;
}

const RuleInfo *
findRule(const char *id)
{
    for (const RuleInfo &rule : kRules)
        if (std::strcmp(rule.id, id) == 0)
            return &rule;
    return nullptr;
}

} // namespace rigor::check
