#include "obs/metrics.hh"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hh"

namespace rigor::obs
{

Histogram::Histogram(std::span<const double> upper_bounds)
    : _bounds(upper_bounds.begin(), upper_bounds.end()),
      _buckets(_bounds.size() + 1)
{
    if (!std::is_sorted(_bounds.begin(), _bounds.end()))
        throw std::invalid_argument(
            "Histogram: bucket bounds must be sorted ascending");
}

void
Histogram::observe(double value)
{
    const auto it =
        std::lower_bound(_bounds.begin(), _bounds.end(), value);
    const std::size_t bucket =
        static_cast<std::size_t>(it - _bounds.begin());
    _buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    _count.fetch_add(1, std::memory_order_relaxed);
    double seen = _sum.load(std::memory_order_relaxed);
    while (!_sum.compare_exchange_weak(seen, seen + value,
                                       std::memory_order_relaxed))
        ;
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> counts;
    counts.reserve(_buckets.size());
    for (const std::atomic<std::uint64_t> &b : _buckets)
        counts.push_back(b.load(std::memory_order_relaxed));
    return counts;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    const std::scoped_lock lock(_mutex);
    std::unique_ptr<Counter> &slot = _counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    const std::scoped_lock lock(_mutex);
    std::unique_ptr<Gauge> &slot = _gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::span<const double> upper_bounds)
{
    const std::scoped_lock lock(_mutex);
    std::unique_ptr<Histogram> &slot = _histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>(upper_bounds);
    return *slot;
}

std::string
MetricsRegistry::toJson() const
{
    const std::scoped_lock lock(_mutex);
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto &[name, counter] : _counters) {
        if (!first)
            out += ',';
        first = false;
        appendJsonString(out, name);
        out += ':';
        out += std::to_string(counter->value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto &[name, gauge] : _gauges) {
        if (!first)
            out += ',';
        first = false;
        appendJsonString(out, name);
        out += ':';
        out += jsonNumber(gauge->value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto &[name, histogram] : _histograms) {
        if (!first)
            out += ',';
        first = false;
        appendJsonString(out, name);
        out += ":{\"count\":";
        out += std::to_string(histogram->count());
        out += ",\"sum\":";
        out += jsonNumber(histogram->sum());
        out += ",\"mean\":";
        out += jsonNumber(histogram->mean());
        out += ",\"bounds\":[";
        const std::vector<double> &bounds = histogram->bounds();
        for (std::size_t i = 0; i < bounds.size(); ++i) {
            if (i != 0)
                out += ',';
            out += jsonNumber(bounds[i]);
        }
        out += "],\"buckets\":[";
        const std::vector<std::uint64_t> counts =
            histogram->bucketCounts();
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (i != 0)
                out += ',';
            out += std::to_string(counts[i]);
        }
        out += "]}";
    }
    out += "}}";
    return out;
}

void
MetricsRegistry::writeTo(const std::string &path) const
{
    writeTextFile(path, toJson() + '\n');
}

} // namespace rigor::obs
