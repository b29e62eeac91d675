#include "sample/sampling.hh"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "stats/descriptive.hh"
#include "stats/distributions.hh"

namespace rigor::sample
{

void
SamplingOptions::validate() const
{
    if (!enabled)
        return;
    if (unitInstructions == 0)
        throw std::invalid_argument(
            "SamplingOptions: unit size must be non-zero");
    if (intervalInstructions == 0)
        throw std::invalid_argument(
            "SamplingOptions: sampling interval must be non-zero");
    if (warmupInstructions + unitInstructions > intervalInstructions)
        throw std::invalid_argument(
            "SamplingOptions: warm-up + unit (" +
            std::to_string(warmupInstructions + unitInstructions) +
            ") must fit inside the sampling interval (" +
            std::to_string(intervalInstructions) + ")");
    if (!(confidence > 0.0) || confidence >= 1.0)
        throw std::invalid_argument(
            "SamplingOptions: confidence must be in (0, 1)");
}

std::string
SamplingOptions::id() const
{
    if (!enabled)
        return "";
    return "s:u" + std::to_string(unitInstructions) + ":w" +
           std::to_string(warmupInstructions) + ":i" +
           std::to_string(intervalInstructions);
}

SampleSummary
summarizeUnits(std::span<const double> unit_cpis,
               std::uint64_t stream_instructions,
               std::uint64_t detailed_instructions,
               std::uint64_t measured_instructions, double confidence)
{
    SampleSummary summary;
    summary.units = unit_cpis.size();
    summary.detailedInstructions = detailed_instructions;
    summary.measuredInstructions = measured_instructions;
    summary.streamInstructions = stream_instructions;
    if (summary.units == 0)
        return summary;

    summary.cpiMean = stats::mean(unit_cpis);
    if (summary.units >= 2) {
        summary.cpiStddev = stats::stddev(unit_cpis);
        const stats::ConfidenceInterval ci = stats::meanConfidenceInterval(
            summary.cpiMean, summary.cpiStddev,
            static_cast<unsigned>(summary.units), confidence);
        summary.ciHalfWidth = (ci.high - ci.low) / 2.0;
        summary.relativeError =
            summary.cpiMean > 0.0
                ? summary.ciHalfWidth / summary.cpiMean
                : 0.0;
    }
    summary.estimatedCycles =
        summary.cpiMean * static_cast<double>(stream_instructions);
    return summary;
}

namespace
{

/**
 * Bounded view over a TraceSource: next() yields at most the armed
 * limit before reporting exhaustion. Lets runSampled() drive the
 * cumulative core through one detailed stretch at a time without
 * rewinding the underlying source.
 */
class Window : public trace::TraceSource
{
  public:
    explicit Window(trace::TraceSource &inner) : _inner(inner) {}

    void rearm(std::uint64_t limit)
    {
        _limit = limit;
        _taken = 0;
    }

    bool next(trace::Instruction &out) override
    {
        if (_taken >= _limit || !_inner.next(out))
            return false;
        ++_taken;
        return true;
    }

    void reset() override
    {
        throw std::logic_error(
            "sample::Window: windows are forward-only");
    }

    std::uint64_t length() const override { return _limit; }

    std::uint64_t taken() const { return _taken; }

  private:
    trace::TraceSource &_inner;
    std::uint64_t _limit = 0;
    std::uint64_t _taken = 0;
};

} // namespace

SampleSummary
runSampled(sim::SuperscalarCore &core, trace::TraceSource &source,
           const SamplingOptions &options)
{
    options.validate();
    if (!options.enabled)
        throw std::invalid_argument(
            "runSampled: options.enabled is false");

    const std::uint64_t total = source.length();
    const std::uint64_t detail_per_period =
        options.warmupInstructions + options.unitInstructions;
    if (total < detail_per_period)
        throw std::invalid_argument(
            "runSampled: stream of " + std::to_string(total) +
            " instructions is shorter than one warm-up + unit (" +
            std::to_string(detail_per_period) + ")");

    Window window(source);
    std::vector<double> unit_cpis;
    std::uint64_t consumed = 0;
    std::uint64_t detailed = 0;
    std::uint64_t measured = 0;

    while (consumed + detail_per_period <= total) {
        // Detailed warm-up: simulated with full timing so the
        // pipeline state entering the unit is realistic, but the
        // cycles are excluded from the unit CPI via the delta below.
        if (options.warmupInstructions > 0) {
            window.rearm(options.warmupInstructions);
            core.run(window);
            consumed += window.taken();
            detailed += window.taken();
        }

        // Measured unit.
        const std::uint64_t cycles_before = core.stats().cycles;
        window.rearm(options.unitInstructions);
        core.run(window);
        const std::uint64_t unit_instructions = window.taken();
        consumed += unit_instructions;
        detailed += unit_instructions;
        measured += unit_instructions;
        if (unit_instructions > 0)
            unit_cpis.push_back(
                static_cast<double>(core.stats().cycles -
                                    cycles_before) /
                static_cast<double>(unit_instructions));

        // Functional fast-forward to the next period boundary.
        const std::uint64_t skip = std::min(
            options.intervalInstructions - detail_per_period,
            total - consumed);
        if (skip > 0)
            consumed += core.warm(source, skip);
    }

    return summarizeUnits(unit_cpis, total, detailed, measured,
                          options.confidence);
}

} // namespace rigor::sample
