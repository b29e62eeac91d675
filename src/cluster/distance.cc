#include "cluster/distance.hh"

#include <cmath>
#include <stdexcept>

namespace rigor::cluster
{

namespace
{

void
checkLengths(std::span<const double> x, std::span<const double> y)
{
    if (x.size() != y.size() || x.empty())
        throw std::invalid_argument(
            "distance: vectors must be non-empty and of equal length");
}

} // namespace

double
euclideanDistance(std::span<const double> x, std::span<const double> y)
{
    checkLengths(x, y);
    double ss = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = x[i] - y[i];
        ss += d * d;
    }
    return std::sqrt(ss);
}

} // namespace rigor::cluster
