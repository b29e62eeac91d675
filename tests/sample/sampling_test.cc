#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "exec/engine.hh"
#include "methodology/parameter_space.hh"
#include "sample/sampling.hh"
#include "sim/core.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace sample = rigor::sample;
namespace sim = rigor::sim;
namespace trace = rigor::trace;

namespace
{

sample::SamplingOptions
enabledOptions()
{
    sample::SamplingOptions options;
    options.enabled = true;
    return options;
}

} // namespace

// ----- SamplingOptions validation and identity -----

TEST(SamplingOptions, DefaultsAreValidWhenEnabled)
{
    EXPECT_NO_THROW(enabledOptions().validate());
}

TEST(SamplingOptions, DisabledSkipsValidation)
{
    sample::SamplingOptions options; // disabled, fields untouched
    options.unitInstructions = 0;
    EXPECT_NO_THROW(options.validate());
}

TEST(SamplingOptions, RejectsMalformedSchedules)
{
    sample::SamplingOptions options = enabledOptions();
    options.unitInstructions = 0;
    EXPECT_THROW(options.validate(), std::invalid_argument);

    options = enabledOptions();
    options.intervalInstructions = 0;
    EXPECT_THROW(options.validate(), std::invalid_argument);

    // Detailed phase longer than the period: nothing left to skip.
    options = enabledOptions();
    options.warmupInstructions = 9500;
    options.unitInstructions = 1000;
    options.intervalInstructions = 10000;
    EXPECT_THROW(options.validate(), std::invalid_argument);

    options = enabledOptions();
    options.confidence = 1.0;
    EXPECT_THROW(options.validate(), std::invalid_argument);
}

TEST(SamplingOptions, IdNamesScheduleAndIsEmptyWhenDisabled)
{
    sample::SamplingOptions options = enabledOptions();
    options.unitInstructions = 500;
    options.warmupInstructions = 1500;
    options.intervalInstructions = 8000;
    EXPECT_EQ(options.id(), "s:u500:w1500:i8000");
    options.enabled = false;
    EXPECT_EQ(options.id(), "");
}

// ----- Golden CI vectors -----

TEST(SummarizeUnits, KnownVectorMatchesStudentT)
{
    // n = 4, mean = 2.5, s = sqrt(5/3); t(3, 0.975) = 3.18245 gives
    // half-width t * s / sqrt(n) = 2.05426.
    const std::vector<double> cpis = {1.0, 2.0, 3.0, 4.0};
    const sample::SampleSummary summary =
        sample::summarizeUnits(cpis, 100000, 12000, 4000, 0.95);
    EXPECT_EQ(summary.units, 4u);
    EXPECT_EQ(summary.streamInstructions, 100000u);
    EXPECT_EQ(summary.detailedInstructions, 12000u);
    EXPECT_EQ(summary.measuredInstructions, 4000u);
    EXPECT_DOUBLE_EQ(summary.cpiMean, 2.5);
    EXPECT_NEAR(summary.cpiStddev, 1.2909944487, 1e-9);
    EXPECT_NEAR(summary.ciHalfWidth, 2.05426, 1e-4);
    EXPECT_NEAR(summary.relativeError, 2.05426 / 2.5, 1e-4);
    EXPECT_DOUBLE_EQ(summary.estimatedCycles, 2.5 * 100000);
}

TEST(SummarizeUnits, ConstantUnitsHaveZeroWidth)
{
    const std::vector<double> cpis = {2.0, 2.0, 2.0, 2.0, 2.0};
    const sample::SampleSummary summary =
        sample::summarizeUnits(cpis, 50000, 15000, 5000, 0.95);
    EXPECT_DOUBLE_EQ(summary.cpiMean, 2.0);
    EXPECT_DOUBLE_EQ(summary.cpiStddev, 0.0);
    EXPECT_DOUBLE_EQ(summary.ciHalfWidth, 0.0);
    EXPECT_DOUBLE_EQ(summary.relativeError, 0.0);
}

TEST(SummarizeUnits, SingleUnitHasNoInterval)
{
    // One unit gives a mean but no spread, so no CI is reported.
    const std::vector<double> cpis = {2.0};
    const sample::SampleSummary summary =
        sample::summarizeUnits(cpis, 10000, 3000, 1000, 0.95);
    EXPECT_EQ(summary.units, 1u);
    EXPECT_DOUBLE_EQ(summary.cpiMean, 2.0);
    EXPECT_DOUBLE_EQ(summary.ciHalfWidth, 0.0);
    EXPECT_DOUBLE_EQ(summary.relativeError, 0.0);
}

TEST(SummarizeUnits, TighterConfidenceWidensInterval)
{
    const std::vector<double> cpis = {1.0, 1.5, 2.0, 2.5, 3.0};
    const sample::SampleSummary narrow =
        sample::summarizeUnits(cpis, 1000, 100, 50, 0.90);
    const sample::SampleSummary wide =
        sample::summarizeUnits(cpis, 1000, 100, 50, 0.99);
    EXPECT_LT(narrow.ciHalfWidth, wide.ciHalfWidth);
}

// ----- runSampled behavior -----

TEST(RunSampled, AccountsDetailedAndMeasuredInstructions)
{
    const trace::WorkloadProfile profile =
        trace::workloadByName("gzip");
    sample::SamplingOptions options = enabledOptions();
    options.unitInstructions = 500;
    options.warmupInstructions = 1000;
    options.intervalInstructions = 5000;

    sim::SuperscalarCore core(
        methodology::uniformConfig(doe::Level::High));
    trace::SyntheticTraceGenerator gen(profile, 25000);
    const sample::SampleSummary summary =
        sample::runSampled(core, gen, options);

    EXPECT_EQ(summary.units, 5u);
    EXPECT_EQ(summary.measuredInstructions, 5u * 500u);
    EXPECT_EQ(summary.detailedInstructions, 5u * 1500u);
    EXPECT_EQ(summary.streamInstructions, 25000u);
    EXPECT_GT(summary.cpiMean, 0.0);
    EXPECT_GT(summary.estimatedCycles, 0.0);
}

TEST(RunSampled, RejectsStreamShorterThanOneDetailedPhase)
{
    const trace::WorkloadProfile profile =
        trace::workloadByName("gzip");
    sample::SamplingOptions options = enabledOptions();
    sim::SuperscalarCore core(
        methodology::uniformConfig(doe::Level::High));
    trace::SyntheticTraceGenerator gen(profile, 2000); // < 3000
    EXPECT_THROW(sample::runSampled(core, gen, options),
                 std::invalid_argument);
}

TEST(RunSampled, DeterministicAcrossRepeats)
{
    const trace::WorkloadProfile profile =
        trace::workloadByName("mcf");
    sample::SamplingOptions options = enabledOptions();
    options.unitInstructions = 400;
    options.warmupInstructions = 800;
    options.intervalInstructions = 4000;

    sample::SampleSummary runs[2];
    for (sample::SampleSummary &out : runs) {
        sim::SuperscalarCore core(
            methodology::uniformConfig(doe::Level::Low));
        trace::SyntheticTraceGenerator gen(profile, 20000);
        out = sample::runSampled(core, gen, options);
    }
    EXPECT_EQ(runs[0].units, runs[1].units);
    EXPECT_EQ(runs[0].detailedInstructions,
              runs[1].detailedInstructions);
    EXPECT_DOUBLE_EQ(runs[0].cpiMean, runs[1].cpiMean);
    EXPECT_DOUBLE_EQ(runs[0].cpiStddev, runs[1].cpiStddev);
    EXPECT_DOUBLE_EQ(runs[0].ciHalfWidth, runs[1].ciHalfWidth);
    EXPECT_DOUBLE_EQ(runs[0].estimatedCycles,
                     runs[1].estimatedCycles);
}

TEST(RunSampled, DeterministicAcrossEngineThreadCounts)
{
    const auto all = rigor::trace::spec2000Workloads();
    const std::vector<trace::WorkloadProfile> workloads(
        all.begin(), all.begin() + 3);

    const auto responsesWith =
        [&workloads](unsigned threads) -> std::vector<double> {
        std::vector<exec::SimJob> jobs;
        for (const trace::WorkloadProfile &w : workloads) {
            for (const doe::Level level :
                 {doe::Level::Low, doe::Level::High}) {
                exec::SimJob job;
                job.workload = &w;
                job.config = methodology::uniformConfig(level);
                job.instructions = 20000;
                job.sampling.enabled = true;
                job.label = w.name;
                jobs.push_back(std::move(job));
            }
        }
        exec::SimulationEngine engine(
            exec::EngineOptions{threads, false});
        return engine.run(jobs);
    };

    const std::vector<double> serial = responsesWith(1);
    const std::vector<double> parallel = responsesWith(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_DOUBLE_EQ(serial[i], parallel[i]) << "job " << i;
}
