/**
 * @file
 * google-benchmark microbenchmarks: throughput of the simulator core,
 * the synthetic trace generator, PB design construction, and the
 * effect/ranking analysis — the pieces whose speed determines whether
 * the 1144-simulation experiment is laptop-scale.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "doe/effects.hh"
#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "exec/engine.hh"
#include "methodology/parameter_space.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/workflow.hh"
#include "sim/core.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace sim = rigor::sim;
namespace trace = rigor::trace;

namespace
{

void
BM_TraceGeneration(benchmark::State &state)
{
    const trace::WorkloadProfile &p = trace::workloadByName("gcc");
    const auto n = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        trace::SyntheticTraceGenerator gen(p, n);
        trace::Instruction inst;
        std::uint64_t count = 0;
        while (gen.next(inst))
            ++count;
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_TraceGeneration)->Arg(100000);

void
BM_CoreSimulation(benchmark::State &state)
{
    const trace::WorkloadProfile &p = trace::workloadByName("gzip");
    const auto n = static_cast<std::uint64_t>(state.range(0));
    const sim::ProcessorConfig config =
        methodology::uniformConfig(doe::Level::High);
    for (auto _ : state) {
        trace::SyntheticTraceGenerator gen(p, n);
        sim::SuperscalarCore core(config);
        benchmark::DoNotOptimize(core.run(gen).cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_CoreSimulation)->Arg(100000);

void
BM_CoreSimulationMemoryBound(benchmark::State &state)
{
    const trace::WorkloadProfile &p = trace::workloadByName("mcf");
    const auto n = static_cast<std::uint64_t>(state.range(0));
    const sim::ProcessorConfig config =
        methodology::uniformConfig(doe::Level::Low);
    for (auto _ : state) {
        trace::SyntheticTraceGenerator gen(p, n);
        sim::SuperscalarCore core(config);
        benchmark::DoNotOptimize(core.run(gen).cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_CoreSimulationMemoryBound)->Arg(100000);

void
BM_PbDesignConstruction(benchmark::State &state)
{
    const auto x = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        const doe::DesignMatrix m = doe::foldover(doe::pbDesign(x));
        benchmark::DoNotOptimize(m.numRows());
    }
}
BENCHMARK(BM_PbDesignConstruction)->Arg(8)->Arg(44)->Arg(84);

void
BM_EffectComputation(benchmark::State &state)
{
    const doe::DesignMatrix design =
        doe::foldover(doe::pbDesign(44));
    std::vector<double> responses(design.numRows());
    for (std::size_t i = 0; i < responses.size(); ++i)
        responses[i] = static_cast<double>(i * 37 % 101);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            doe::computeEffects(design, responses));
    }
}
BENCHMARK(BM_EffectComputation);

void
BM_ConfigFromLevels(benchmark::State &state)
{
    const doe::DesignMatrix design = doe::pbDesign(44);
    const std::vector<doe::Level> levels = design.row(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            methodology::configForLevels(levels).robEntries);
    }
}
BENCHMARK(BM_ConfigFromLevels);

/** A small batch of distinct engine jobs: 2 workloads x 16 screen
 *  rows, enough work per job for the pool to matter. */
std::vector<exec::SimJob>
engineBatch(std::uint64_t instructions)
{
    const doe::DesignMatrix design = doe::pbDesign(44);
    std::vector<exec::SimJob> jobs;
    for (const char *name : {"gzip", "mcf"}) {
        const trace::WorkloadProfile &w = trace::workloadByName(name);
        for (std::size_t row = 0; row < 16; ++row) {
            exec::SimJob job;
            job.workload = &w;
            job.config = methodology::configForLevels(design.row(row));
            job.instructions = instructions;
            job.label = name;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/**
 * Thread scaling of the raw engine over a fixed batch. The cache is
 * disabled and the engine rebuilt per iteration so every run is
 * simulated — the items/s ratio between thread counts is the honest
 * pool speedup.
 */
void
BM_EngineBatchThreadScaling(benchmark::State &state)
{
    const auto threads = static_cast<unsigned>(state.range(0));
    const std::vector<exec::SimJob> jobs = engineBatch(20000);
    for (auto _ : state) {
        exec::SimulationEngine engine(
            exec::EngineOptions{threads, false});
        benchmark::DoNotOptimize(engine.run(jobs));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(jobs.size()) * state.iterations());
}
BENCHMARK(BM_EngineBatchThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency())))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** Rerunning an identical batch through one engine: every run should
 *  be a cache hit, so this measures pure memoization overhead. */
void
BM_EngineCachedRerun(benchmark::State &state)
{
    const std::vector<exec::SimJob> jobs = engineBatch(20000);
    exec::SimulationEngine engine(exec::EngineOptions{1, true});
    engine.run(jobs); // warm the cache
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.run(jobs));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(jobs.size()) * state.iterations());
}
BENCHMARK(BM_EngineCachedRerun);

/**
 * The acceptance-criterion benchmark: end-to-end recommended workflow
 * (PB screen + 2^k factorial) at 1..N threads. On a 4+ core machine
 * the N-thread row should be >= 2x the 1-thread row.
 */
void
BM_RecommendedWorkflowThreadScaling(benchmark::State &state)
{
    methodology::WorkflowOptions opts;
    opts.base.instructionsPerRun = 2000;
    opts.base.warmupInstructions = 0;
    opts.maxCriticalParameters = 3;
    opts.base.campaign.threads = static_cast<unsigned>(state.range(0));
    const std::vector<trace::WorkloadProfile> workloads = {
        trace::workloadByName("gzip"),
        trace::workloadByName("mcf"),
    };
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            methodology::runRecommendedWorkflow(workloads, opts)
                .execution.runsCompleted);
    }
}
BENCHMARK(BM_RecommendedWorkflowThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency())))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace
