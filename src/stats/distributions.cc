#include "stats/distributions.hh"

#include <cmath>
#include <stdexcept>

#include "stats/special_functions.hh"

namespace rigor::stats
{

namespace
{

/**
 * Generic monotone-CDF inversion by bisection over an expanding
 * bracket. All quantile functions below share this: they are not on
 * any hot path (a handful of calls per interval), so robustness
 * beats speed.
 */
template <typename Cdf>
double
invertCdf(const Cdf &cdf, double p, double lo, double hi)
{
    if (p <= 0.0 || p >= 1.0)
        throw std::invalid_argument("quantile: p must be in (0, 1)");

    // Expand the bracket until it encloses p.
    while (cdf(lo) > p)
        lo = lo >= 0.0 ? lo / 2.0 - 1.0 : lo * 2.0;
    while (cdf(hi) < p)
        hi = hi <= 0.0 ? hi / 2.0 + 1.0 : hi * 2.0;

    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (cdf(mid) < p)
            lo = mid;
        else
            hi = mid;
        if (hi - lo < 1e-12 * (1.0 + std::abs(mid)))
            break;
    }
    return 0.5 * (lo + hi);
}

} // namespace

// ---------------------------------------------------------------------
// NormalDistribution
// ---------------------------------------------------------------------

double
NormalDistribution::cdf(double x) const
{
    return 0.5 * complementaryErrorFunction(-x / std::sqrt(2.0));
}

double
NormalDistribution::quantile(double p) const
{
    return invertCdf([this](double x) { return cdf(x); }, p, -10.0, 10.0);
}

// ---------------------------------------------------------------------
// StudentTDistribution
// ---------------------------------------------------------------------

StudentTDistribution::StudentTDistribution(double dof) : _dof(dof)
{
    if (dof <= 0.0)
        throw std::invalid_argument(
            "StudentTDistribution: dof must be positive");
}

double
StudentTDistribution::cdf(double x) const
{
    const double v = _dof;
    const double z = v / (v + x * x);
    const double tail = 0.5 * regularizedIncompleteBeta(v / 2.0, 0.5, z);
    return x > 0.0 ? 1.0 - tail : tail;
}

double
StudentTDistribution::quantile(double p) const
{
    return invertCdf([this](double x) { return cdf(x); }, p, -100.0, 100.0);
}

// ---------------------------------------------------------------------
// Confidence intervals
// ---------------------------------------------------------------------

ConfidenceInterval
meanConfidenceInterval(double sample_mean, double sample_stddev, unsigned n,
                       double confidence)
{
    if (n < 2)
        throw std::invalid_argument(
            "meanConfidenceInterval: need at least two observations");
    if (confidence <= 0.0 || confidence >= 1.0)
        throw std::invalid_argument(
            "meanConfidenceInterval: confidence must be in (0, 1)");

    const StudentTDistribution t(static_cast<double>(n - 1));
    const double alpha = 1.0 - confidence;
    const double t_crit = t.quantile(1.0 - alpha / 2.0);
    const double half_width =
        t_crit * sample_stddev / std::sqrt(static_cast<double>(n));
    return {sample_mean - half_width, sample_mean + half_width};
}

} // namespace rigor::stats
