#include "stats/descriptive.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rigor::stats
{

double
mean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    return sum(xs) / static_cast<double>(xs.size());
}

double
variance(std::span<const double> xs)
{
    const std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    const double m = mean(xs);
    double ss = 0.0;
    for (double x : xs) {
        const double d = x - m;
        ss += d * d;
    }
    return ss / static_cast<double>(n - 1);
}

double
stddev(std::span<const double> xs)
{
    return std::sqrt(variance(xs));
}

double
median(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    if (n % 2 == 1)
        return sorted[n / 2];
    return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double
sum(std::span<const double> xs)
{
    // Kahan summation: the PB experiment sums over thousands of
    // simulation responses and we do not want the result to depend on
    // accumulation order.
    double s = 0.0;
    double c = 0.0;
    for (double x : xs) {
        const double y = x - c;
        const double t = s + y;
        c = (t - s) - y;
        s = t;
    }
    return s;
}

std::vector<double>
ranks(std::span<const double> xs)
{
    const std::size_t n = xs.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });

    std::vector<double> result(n, 0.0);
    std::size_t i = 0;
    while (i < n) {
        // Find the extent of the tie group starting at sorted pos i.
        std::size_t j = i;
        while (j + 1 < n && xs[order[j + 1]] == xs[order[i]])
            ++j;
        // Average of 1-based ranks i+1 .. j+1.
        const double avg_rank =
            (static_cast<double>(i + 1) + static_cast<double>(j + 1)) / 2.0;
        for (std::size_t k = i; k <= j; ++k)
            result[order[k]] = avg_rank;
        i = j + 1;
    }
    return result;
}

} // namespace rigor::stats
