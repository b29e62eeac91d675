/**
 * @file
 * Probability distributions used for significance testing.
 *
 * The ANOVA module (stats/anova.hh) uses the F distribution to attach
 * p-values to factor effects, matching the workflow the paper
 * recommends in section 4.1 (step 3: a full-factorial sensitivity
 * analysis over the critical parameters "using the ANOVA technique").
 * Student's t and the normal distribution support confidence intervals
 * on simulation responses.
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
 * F distribution with @p dof1 numerator and @p dof2 denominator
 * degrees of freedom.
 */
class FDistribution
{
  public:
    FDistribution(double dof1, double dof2);

    double cdf(double x) const;

    /** Right-tail probability P(F > x), the ANOVA p-value. */
    double survival(double x) const;

    double dof1() const { return _dof1; }
    double dof2() const { return _dof2; }

  private:
    double _dof1;
    double _dof2;
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
