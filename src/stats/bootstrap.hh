/**
 * @file
 * Deterministic, seeded bootstrap resampling.
 *
 * The rank-stability layer (methodology/rank_stability.hh) needs
 * confidence intervals on statistics of *replicated* simulation
 * campaigns — per-parameter Plackett-Burman ranks, sum-of-ranks, and
 * Table-10 distances — whose sampling distributions are not available
 * in closed form. The nonparametric bootstrap [Efron93] estimates
 * them by resampling the observed replicates with replacement.
 *
 * Everything here is deterministic by construction: resample indices
 * for iteration b are drawn from a private PRNG seeded with
 * mixSeed(seed, b), so results are bit-identical for a fixed seed
 * regardless of how many worker threads produced the replicates or
 * in what order iterations would be computed. That determinism is a
 * hard requirement — bootstrap output participates in campaign
 * manifests and golden-value regression tests.
 */

#ifndef RIGOR_STATS_BOOTSTRAP_HH
#define RIGOR_STATS_BOOTSTRAP_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace rigor::stats
{

/**
 * Self-contained SplitMix64 PRNG for resampling draws. Deliberately
 * independent of the trace-layer generator: workload realizations and
 * bootstrap resamples must never share a stream, or changing one
 * would silently reseed the other.
 */
class BootstrapRng
{
  public:
    explicit BootstrapRng(std::uint64_t seed) : _state(seed) {}

    /** Next raw 64-bit value (SplitMix64). */
    std::uint64_t next();

    /** Uniform in [0, bound). @p bound must be non-zero. */
    std::uint64_t nextBelow(std::uint64_t bound);

  private:
    std::uint64_t _state;
};

/** Stable seed derivation: one independent stream per (seed, index). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t index);

/** Interval-construction method. */
enum class BootstrapMethod
{
    /** Plain percentile interval of the bootstrap distribution. */
    Percentile,
    /**
     * Bias-corrected and accelerated [Efron93, ch. 14]: corrects the
     * percentile interval for median bias (z0) and for a statistic
     * whose variance changes with the parameter (acceleration a,
     * from a jackknife). Falls back to the percentile interval when
     * the bootstrap distribution is degenerate.
     */
    Bca,
};

/** Resampling and interval knobs. */
struct BootstrapOptions
{
    /** Bootstrap iterations (resamples). */
    std::uint64_t iterations = 2000;
    /** Seed of the deterministic resampling stream. */
    std::uint64_t seed = 0x5eedb007u;
    /** Two-sided confidence level in (0, 1). */
    double confidence = 0.95;
    BootstrapMethod method = BootstrapMethod::Bca;

    /** Throw std::invalid_argument when malformed. */
    void validate() const;
};

/** One bootstrapped statistic with its confidence interval. */
struct BootstrapInterval
{
    /** The statistic on the original sample. */
    double estimate = 0.0;
    double lower = 0.0;
    double upper = 0.0;

    double halfWidth() const { return (upper - lower) / 2.0; }
};

/** Statistic over a sample, e.g. the mean. */
using StatisticFn = std::function<double(std::span<const double>)>;

/**
 * Empirical quantile with linear interpolation (R type 7) of an
 * ascending-sorted sample. @p p is clamped to [0, 1].
 */
double quantileSorted(std::span<const double> sorted, double p);

/**
 * Fill @p out with @p out.size() indices drawn uniformly with
 * replacement from [0, n). The resample core shared by bootstrapCi
 * and the joint rank bootstrap.
 */
void resampleIndices(BootstrapRng &rng, std::size_t n,
                     std::span<std::size_t> out);

/**
 * Bootstrap confidence interval for @p statistic over @p sample.
 *
 * @param sample observed values (at least one; a single observation
 *        yields a degenerate zero-width interval)
 * @param statistic the statistic of interest (called on resamples
 *        of @p sample; must be pure)
 * @param options iterations, seed, confidence, method
 */
BootstrapInterval bootstrapCi(std::span<const double> sample,
                              const StatisticFn &statistic,
                              const BootstrapOptions &options);

/** bootstrapCi() with the mean as the statistic. */
BootstrapInterval bootstrapMeanCi(std::span<const double> sample,
                                  const BootstrapOptions &options);

/**
 * Replication policy of a campaign: how many independent workload
 * realizations (replicate seeds) back every conclusion, and how the
 * replicate spread is turned into reported uncertainty. Lives in the
 * stats layer so both the check layer (pre-flight enforcement) and
 * the exec layer (CampaignOptions) can share it.
 */
struct ReplicationOptions
{
    /**
     * Independent workload-generation replicates per benchmark.
     * 0 disables replication entirely (single-realization campaign,
     * the historical behavior); values >= 1 request a replicated
     * campaign with rank-stability analysis.
     */
    unsigned replicates = 0;
    /** Bootstrap schedule applied to the replicate responses. */
    BootstrapOptions bootstrap;

    /** True when a replicated campaign was requested. */
    bool enabled() const { return replicates != 0; }
};

} // namespace rigor::stats

#endif // RIGOR_STATS_BOOTSTRAP_HH
