#include "stats/correlation.hh"

#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hh"

namespace rigor::stats
{

double
pearsonCorrelation(std::span<const double> xs, std::span<const double> ys)
{
    if (xs.size() != ys.size())
        throw std::invalid_argument(
            "pearsonCorrelation: sequences must have equal length");
    if (xs.size() < 2)
        throw std::invalid_argument(
            "pearsonCorrelation: need at least two observations");

    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        throw std::invalid_argument(
            "pearsonCorrelation: inputs must have non-zero variance");
    return sxy / std::sqrt(sxx * syy);
}

double
spearmanCorrelation(std::span<const double> xs, std::span<const double> ys)
{
    const std::vector<double> rx = ranks(xs);
    const std::vector<double> ry = ranks(ys);
    return pearsonCorrelation(rx, ry);
}

} // namespace rigor::stats
