/**
 * @file
 * The stable rule-id vocabulary of the rigor-lint analyzers.
 *
 * Rule ids are dotted, namespaced by analyzer, and never recycled:
 * tests, CI greps, and suppression lists key on them. Keep this file
 * in sync with the rule table in EXPERIMENTS.md.
 */

#ifndef RIGOR_CHECK_RULE_IDS_HH
#define RIGOR_CHECK_RULE_IDS_HH

namespace rigor::check::rules
{

// ----- Design-matrix analysis (design_check) -----

/** Run count is not a multiple of four (PB requirement). */
inline constexpr const char *kDesignRunsNotMultipleOfFour =
    "design.runs-multiple-of-four";
/** More factors than a PB design of this run count supports. */
inline constexpr const char *kDesignTooManyFactors =
    "design.factor-capacity";
/** Column count differs from the declared factor count. */
inline constexpr const char *kDesignFactorCount = "design.factor-count";
/** A column has unequal +1/-1 counts. */
inline constexpr const char *kDesignColumnBalance =
    "design.column-balance";
/** Two columns have a non-zero sign dot product. */
inline constexpr const char *kDesignOrthogonality =
    "design.orthogonality";
/** Two columns are identical (perfectly aliased factors). */
inline constexpr const char *kDesignDuplicateColumn =
    "design.duplicate-column";
/** A row in the second half is not the sign-flip of its mirror. */
inline constexpr const char *kDesignFoldoverComplement =
    "design.foldover-complement";
/** A folded design must have an even run count. */
inline constexpr const char *kDesignFoldoverOddRuns =
    "design.foldover-odd-runs";

// ----- Configuration / parameter-space analysis (config_check) -----

/** ProcessorConfig::validate() rejected the configuration. */
inline constexpr const char *kConfigInvalid = "config.invalid";
/** LSQ/ROB ratio outside (0, 1] (Table 6 shading). */
inline constexpr const char *kConfigLsqRatio = "config.lsq-ratio";
/** Cache size/block/set geometry is not power-of-two. */
inline constexpr const char *kConfigCacheGeometry =
    "config.cache-geometry";
/** L2 block smaller than an L1 block. */
inline constexpr const char *kConfigL2BlockCoversL1 =
    "config.l2-block-covers-l1";
/** A factor's low/high levels produce identical configurations. */
inline constexpr const char *kSpaceLevelPairEqual =
    "space.level-pair-equal";
/** A factor's low level is not the performance-adverse side. */
inline constexpr const char *kSpaceLevelOrder = "space.level-order";
/** A dummy factor changed the configuration. */
inline constexpr const char *kSpaceDummyNotInert =
    "space.dummy-not-inert";

// ----- Workload-profile analysis (workload_check) -----

/** WorkloadProfile::validate() rejected the profile. */
inline constexpr const char *kWorkloadInvalid = "workload.invalid";
/** Instruction-mix probability mass exceeds 1 or a fraction is
 *  outside [0, 1]. */
inline constexpr const char *kWorkloadMixMass = "workload.mix-mass";
/** Memory access-pattern fractions exceed probability mass 1. */
inline constexpr const char *kWorkloadPatternMass =
    "workload.pattern-mass";
/** FP benchmark with zero FP instruction mass (or the converse). */
inline constexpr const char *kWorkloadFpMix = "workload.fp-mix";
/** No loads or stores: memory-hierarchy factors are unestimable. */
inline constexpr const char *kWorkloadNoMemoryOps =
    "workload.no-memory-ops";
/** Duplicate workload name within one experiment. */
inline constexpr const char *kWorkloadDuplicateName =
    "workload.duplicate-name";

// ----- Run-length / warm-up sanity (workload_check) -----

/** Zero measured instructions. */
inline constexpr const char *kRunNoInstructions =
    "run.no-instructions";
/** Warm-up is an order of magnitude longer than the measured window. */
inline constexpr const char *kRunWarmupDominates =
    "run.warmup-dominates";
/** Measured window too short to traverse the hot code even once. */
inline constexpr const char *kRunWindowBelowHotCode =
    "run.window-below-hot-code";

// ----- Sampled-simulation schedule sanity (workload_check) -----

/** SamplingOptions::validate() rejected the schedule (unit/interval
 *  zero, detailed phase longer than the interval, confidence outside
 *  (0, 1)). */
inline constexpr const char *kSampleScheduleInvalid =
    "sample.schedule-invalid";
/** Stream shorter than one detailed phase: zero measured units. */
inline constexpr const char *kSampleNoUnits = "sample.no-units";
/** Fewer than ~30 units: the CLT normality assumption behind the
 *  confidence interval is shaky. */
inline constexpr const char *kSampleFewUnits = "sample.few-units";

// ----- Campaign fault-tolerance degradation (campaign_check) -----

/** A (benchmark, design row) cell failed terminally and was
 *  quarantined (retries exhausted or non-retryable failure). */
inline constexpr const char *kCampaignCellQuarantined =
    "campaign.cell-quarantined";
/** A quarantined row's foldover mirror is intact: the pair's
 *  main-effect/interaction separation is broken for that benchmark. */
inline constexpr const char *kCampaignFoldoverPairBroken =
    "campaign.foldover-pair-broken";
/** Degradation dropped a whole benchmark from the rank aggregation;
 *  Table 9 sums no longer cover the full suite. */
inline constexpr const char *kCampaignBenchmarkDropped =
    "campaign.benchmark-dropped";
/** Abort mode: a benchmark's response column is incomplete and the
 *  policy forbids dropping it. */
inline constexpr const char *kCampaignBenchmarkIncomplete =
    "campaign.benchmark-incomplete";
/** Degradation would drop every benchmark: no rank table remains. */
inline constexpr const char *kCampaignNoCompleteBenchmarks =
    "campaign.no-complete-benchmarks";
/** Paired legs (base/enhanced) dropped different benchmark sets; the
 *  comparison is restricted to the intersection. */
inline constexpr const char *kCampaignPairedDropMismatch =
    "campaign.paired-drop-mismatch";

// ----- Rank-stability inference (stability_check) -----

/**
 * A replicated campaign was requested with fewer workload-generation
 * replicates than the constant floor kMinReplicates: conclusions
 * cannot distinguish workload-realization noise from parameter effects.
 */
inline constexpr const char *kCampaignUnderReplicated =
    "campaign.under-replicated";
/** Adjacent top-K factors whose bootstrap rank confidence intervals
 *  overlap: their reported order is not resolved by the data. */
inline constexpr const char *kStatsRankCiOverlap =
    "stats.rank-ci-overlap";
/** A reported rank inversion whose bootstrap flip probability
 *  exceeds the threshold: the inversion is inside noise. */
inline constexpr const char *kStatsRankFlipInsideNoise =
    "stats.rank-flip-inside-noise";
/** Sampled runs whose per-run CPI confidence intervals were not
 *  root-sum-square-composed with the replication uncertainty: the
 *  reported error understates the truth. */
inline constexpr const char *kStatsCiComposeMissing =
    "stats.ci-compose-missing";
/** A stability report file failed to parse as the JSON the
 *  --stability-out writer emits. */
inline constexpr const char *kStatsReportSyntax =
    "stats.report-syntax";

// ----- File linting (rigor_lint) -----

/** A file handed to the linter could not be opened or read. */
inline constexpr const char *kLintUnreadableFile =
    "lint.unreadable-file";

} // namespace rigor::check::rules

#endif // RIGOR_CHECK_RULE_IDS_HH
