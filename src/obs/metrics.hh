/**
 * @file
 * Thread-safe metrics registry: counters, gauges, histograms.
 *
 * The execution engine's workers record events (per-run wall time,
 * MIPS, sampled runs) on the simulation fast path, so the record
 * operations must be cheap and lock-free: every metric instrument is
 * a fixed set of std::atomic cells, and the registry mutex is taken
 * only to *create* an instrument (or to export). Callers resolve an
 * instrument pointer once (counter()/gauge()/histogram()) and then
 * hammer it from any number of threads; relaxed atomics are exact for
 * counting (fetch_add never loses an increment). The engine's run
 * counts are not recorded here per event: it adds each batch's
 * progress delta after the batch, and the concurrency test proves the
 * totals match its progress counters under the full worker pool.
 *
 * Export is a flat JSON document (toJson()/writeTo()) so a campaign
 * can drop a machine-readable metrics snapshot next to its trace and
 * manifest.
 */

#ifndef RIGOR_OBS_METRICS_HH
#define RIGOR_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace rigor::obs
{

/** Monotonic event count (lock-free add). */
class Counter
{
  public:
    void add(std::uint64_t delta = 1)
    {
        _value.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/** Last-written level (lock-free set; e.g. worker busy fraction). */
class Gauge
{
  public:
    void set(double value)
    {
        _value.store(value, std::memory_order_relaxed);
    }

    double value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> _value{0.0};
};

/**
 * Fixed-bucket histogram. Bucket i counts observations <= bounds[i];
 * one implicit overflow bucket counts the rest. Count and sum are
 * tracked exactly (the sum with an atomic compare-exchange loop — the
 * observe path is still lock-free).
 */
class Histogram
{
  public:
    explicit Histogram(std::span<const double> upper_bounds);

    void observe(double value);

    std::uint64_t count() const
    {
        return _count.load(std::memory_order_relaxed);
    }

    double sum() const
    {
        return _sum.load(std::memory_order_relaxed);
    }

    double mean() const
    {
        const std::uint64_t n = count();
        return n == 0 ? 0.0 : sum() / static_cast<double>(n);
    }

    const std::vector<double> &bounds() const { return _bounds; }

    /** Per-bucket counts; the final entry is the overflow bucket. */
    std::vector<std::uint64_t> bucketCounts() const;

  private:
    std::vector<double> _bounds;
    std::vector<std::atomic<std::uint64_t>> _buckets;
    std::atomic<std::uint64_t> _count{0};
    std::atomic<double> _sum{0.0};
};

/**
 * Named instrument registry. Instrument creation is mutex-protected
 * and idempotent (same name -> same instance, so independent layers
 * can share one series); the returned references stay valid for the
 * registry's lifetime. Recording through an instrument never takes
 * the registry lock.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /**
     * Histogram with the given bucket upper bounds; on re-lookup of
     * an existing name the bounds argument is ignored.
     */
    Histogram &histogram(const std::string &name,
                         std::span<const double> upper_bounds);

    /**
     * Flat JSON export:
     * {"counters":{...},"gauges":{...},"histograms":{name:
     *  {"count":n,"sum":x,"mean":x,"bounds":[...],"buckets":[...]}}}
     */
    std::string toJson() const;

    /** Write toJson() to @p path; throws std::runtime_error on I/O
     *  failure. */
    void writeTo(const std::string &path) const;

  private:
    mutable std::mutex _mutex;
    std::map<std::string, std::unique_ptr<Counter>> _counters;
    std::map<std::string, std::unique_ptr<Gauge>> _gauges;
    std::map<std::string, std::unique_ptr<Histogram>> _histograms;
};

} // namespace rigor::obs

#endif // RIGOR_OBS_METRICS_HH
