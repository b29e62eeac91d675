/**
 * @file
 * Student's t and the standard normal distribution, for confidence
 * intervals on simulation responses.
 */

#ifndef RIGOR_STATS_DISTRIBUTIONS_HH
#define RIGOR_STATS_DISTRIBUTIONS_HH

namespace rigor::stats
{

/** Standard normal distribution N(0, 1). */
class NormalDistribution
{
  public:
    /** Cumulative probability P(X <= x). */
    double cdf(double x) const;
    /** Inverse CDF for p in (0, 1). */
    double quantile(double p) const;
};

/** Student's t distribution with @p dof degrees of freedom. */
class StudentTDistribution
{
  public:
    explicit StudentTDistribution(double dof);

    double cdf(double x) const;
    double quantile(double p) const;

    double dof() const { return _dof; }

  private:
    double _dof;
};

/**
 * Two-sided confidence interval on the mean of a sample, using
 * Student's t (the standard treatment in [Lilja00]).
 */
struct ConfidenceInterval
{
    double low = 0.0;
    double high = 0.0;
};

/**
 * Confidence interval for the population mean from a sample.
 *
 * @param sample_mean sample mean
 * @param sample_stddev sample standard deviation
 * @param n number of observations (must be >= 2)
 * @param confidence confidence level in (0, 1), e.g. 0.95
 */
ConfidenceInterval meanConfidenceInterval(double sample_mean,
                                          double sample_stddev,
                                          unsigned n,
                                          double confidence);

} // namespace rigor::stats

#endif // RIGOR_STATS_DISTRIBUTIONS_HH
