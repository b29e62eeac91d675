/**
 * @file
 * campaign — fault-tolerant Plackett-Burman experiment campaigns.
 *
 * Runs the paper's Table 9 screening experiment under an explicit
 * FaultPolicy (bounded retries, exponential backoff, per-attempt
 * deadlines), with optional crash-safe journaling so an interrupted
 * campaign resumes from disk, a deterministic fault-injection harness
 * for drills, and first-class observability sinks:
 *
 *     campaign --workloads gzip,mcf --instructions 20000
 *     campaign --journal run.journal --retries 2 --backoff-ms 10
 *     campaign --journal run.journal            # resume: replays
 *     campaign --collect --degrade drop-benchmark
 *     campaign --inject 5:1:transient --retries 1
 *     campaign --inject-label "mcf:":1:hang --deadline-ms 50
 *     campaign --journal run.journal --crash-after 40   # crash drill
 *     campaign --metrics-out m.json --trace-out t.json \
 *              --manifest-out run.jsonl
 *     campaign --isolation process --hard-deadline-ms 1000 \
 *              --mem-limit-mb 128   # every attempt in a sandbox
 *
 * The trace JSON loads directly in chrome://tracing / Perfetto; the
 * manifest is one JSON object per line (campaign / cell / phase /
 * summary records; the summary's runs, instructions and wall time
 * are the campaign's throughput record); the metrics JSON snapshots
 * every engine counter, gauge, and histogram.
 *
 * Exit codes: 0 success (possibly degraded, with warnings printed),
 * 1 campaign failure, 2 usage error, 3 simulated crash (resume with
 * the same --journal).
 */

#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "cli_options.hh"
#include "exec/fault_injection.hh"
#include "exec/journal.hh"
#include "exec/proc/worker_pool.hh"
#include "methodology/adaptive_sampling.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/rank_stability.hh"
#include "methodology/rank_table.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "trace/workloads.hh"

namespace
{

constexpr const char *kSynopsis =
    "[options]\n"
    "\n"
    "Run the 43-factor Plackett-Burman screening campaign with\n"
    "fault tolerance, crash-safe journaling, fault drills, and\n"
    "observability sinks (metrics, Perfetto trace, manifest).";

} // namespace

int
main(int argc, char **argv)
{
    rigor::tools::CampaignSetup cli;
    const rigor::tools::FlagTable flags =
        rigor::tools::campaignFlags(cli);
    if (!rigor::tools::parseFlags(argc, argv, "campaign", flags))
        return rigor::tools::printUsage(argv[0], kSynopsis, flags);
    rigor::methodology::PbExperimentOptions &opts = cli.run;

    try {
        // Resolve the benchmark suite.
        std::vector<rigor::trace::WorkloadProfile> workloads;
        if (cli.workloads.empty()) {
            const auto all = rigor::trace::spec2000Workloads();
            workloads.assign(all.begin(), all.end());
        } else {
            for (const std::string &name : cli.workloads)
                workloads.push_back(
                    rigor::trace::workloadByName(name));
        }

        // The fault-injection plan (empty = the real simulator).
        rigor::exec::FaultInjector &injector = cli.drills;
        if (cli.randomDrills) {
            const std::size_t rows = opts.campaign.foldover ? 88 : 44;
            injector.planRandomTransients(
                workloads.size() * rows,
                opts.campaign.faultPolicy.attempts(),
                cli.randomDrills->first, cli.randomDrills->second);
        }

        rigor::exec::EngineOptions engine_opts;
        engine_opts.threads = opts.campaign.threads;
        if (injector.plannedFaults() != 0)
            engine_opts.simulate = injector.wrap();
        rigor::exec::SimulationEngine engine(engine_opts);

        std::unique_ptr<rigor::exec::ResultJournal> journal;
        if (!cli.journal.empty()) {
            journal = std::make_unique<rigor::exec::ResultJournal>(
                cli.journal);
            if (journal->loadedRecords() != 0)
                std::fprintf(
                    stderr,
                    "campaign: resuming against %s (%zu completed "
                    "runs on disk%s)\n",
                    cli.journal.c_str(),
                    journal->loadedRecords(),
                    journal->tornRecords() != 0
                        ? ", torn final record discarded"
                        : "");
            if (cli.crashAfter)
                journal->simulateCrashAfter(*cli.crashAfter);
        } else if (cli.crashAfter) {
            std::fprintf(stderr,
                         "campaign: --crash-after needs --journal\n");
            return 2;
        }

        // Observability sinks, created only when requested so the
        // default campaign stays sink-free.
        rigor::obs::MetricsRegistry metrics;
        rigor::obs::TraceWriter trace;
        rigor::obs::CampaignManifest manifest;

        // Process isolation: every attempt runs in a forked sandbox,
        // behind the drill injector when drills are planned, so the
        // drills land inside the sandbox rather than in this process.
        std::unique_ptr<rigor::exec::proc::ProcWorkerPool> pool;
        if (cli.isolation == rigor::tools::Isolation::Process) {
            cli.sandbox.workers = engine.threads();
            cli.sandbox.simulate = engine_opts.simulate;
            pool = std::make_unique<rigor::exec::proc::ProcWorkerPool>(
                std::move(cli.sandbox));
            if (!cli.metricsOut.empty())
                pool->setMetrics(&metrics);
            if (!cli.traceOut.empty())
                pool->setTraceWriter(&trace);
            engine.setSimulate(pool->simulateFn());
        }

        // Journal replays get a visible progress line naming the
        // run-cache key, so a resumed campaign shows exactly which
        // configurations were served from disk.
        if (journal && !cli.quiet)
            engine.setJobObserver(
                [](const rigor::exec::JobEvent &event) {
                    if (event.source !=
                        rigor::exec::RunSource::JournalReplay)
                        return;
                    std::fprintf(stderr,
                                 "campaign: replayed %s [key %s]\n",
                                 event.job->label.c_str(),
                                 event.runKey.c_str());
                });

        opts.campaign.engine = &engine;
        opts.campaign.journal = journal.get();
        if (!cli.metricsOut.empty())
            opts.campaign.metrics = &metrics;
        if (!cli.traceOut.empty())
            opts.campaign.trace = &trace;
        if (!cli.manifestOut.empty())
            opts.campaign.manifest = &manifest;

        if (cli.adaptiveRounds != 0 &&
            !opts.campaign.sampling.enabled) {
            std::fprintf(stderr,
                         "campaign: --adaptive-rounds needs "
                         "--sample\n");
            return 2;
        }
        const unsigned replicates = cli.replication.replicates;
        if (replicates != 0 && cli.adaptiveRounds != 0) {
            std::fprintf(stderr,
                         "campaign: --replicates and "
                         "--adaptive-rounds are mutually "
                         "exclusive\n");
            return 2;
        }
        if (!cli.stabilityOut.empty() && replicates == 0) {
            std::fprintf(stderr,
                         "campaign: --stability-out needs "
                         "--replicates\n");
            return 2;
        }

        rigor::methodology::PbExperimentResult result;
        if (replicates != 0) {
            rigor::methodology::RankStabilityOptions stability;
            stability.base = opts;
            stability.replication = cli.replication;
            rigor::methodology::ReplicatedPbResult outcome =
                rigor::methodology::runReplicatedPbExperiment(
                    workloads, stability);
            if (!cli.quiet)
                std::fprintf(
                    stdout, "%s",
                    outcome.stability.toString().c_str());
            if (!cli.stabilityOut.empty())
                rigor::obs::writeTextFile(
                    cli.stabilityOut,
                    outcome.stability.toJson() + '\n');
            result = std::move(outcome.pooled);
        } else if (cli.adaptiveRounds != 0) {
            rigor::methodology::AdaptiveSamplingOptions adaptive;
            adaptive.base = opts;
            adaptive.maxRounds = cli.adaptiveRounds;
            rigor::methodology::AdaptiveSamplingResult outcome =
                rigor::methodology::runAdaptivePbExperiment(
                    workloads, adaptive);
            for (std::size_t r = 0; r < outcome.rounds.size(); ++r) {
                const rigor::methodology::AdaptiveRound &round =
                    outcome.rounds[r];
                std::fprintf(
                    stderr,
                    "campaign: sampling round %zu: interval %llu, "
                    "%zu benchmark(s), %zu ambiguous pair(s) "
                    "remain\n",
                    r,
                    static_cast<unsigned long long>(
                        round.sampling.intervalInstructions),
                    round.simulatedBenchmarks.size(),
                    round.ambiguousPairs);
            }
            std::fprintf(stderr,
                         "campaign: adaptive sampling %s after %zu "
                         "round(s)\n",
                         outcome.converged ? "converged" : "stopped",
                         outcome.rounds.size());
            result = std::move(outcome.result);
        } else {
            result = rigor::methodology::runPbExperiment(workloads,
                                                         opts);
        }
        // Each sandbox's "proc.worker" span closes as the pool shuts
        // down, so the pool goes before the trace is written.
        pool.reset();

        // Degradation trail first, table second: a reduced Table 9
        // is always preceded and suffixed by what it is missing.
        if (!result.validity.diagnostics().empty())
            std::fprintf(stderr, "%s",
                         result.validity.toString().c_str());
        if (!cli.quiet)
            std::fprintf(
                stdout, "%s",
                rigor::methodology::formatRankTable(
                    result.summaries, result.benchmarks,
                    result.droppedBenchmarks)
                    .c_str());
        std::fprintf(stderr, "campaign: %s\n",
                     engine.progress().snapshot().toString().c_str());

        if (!cli.metricsOut.empty())
            metrics.writeTo(cli.metricsOut);
        if (!cli.traceOut.empty())
            trace.writeTo(cli.traceOut);
        if (!cli.manifestOut.empty())
            manifest.writeTo(cli.manifestOut);
        return 0;
    } catch (const rigor::exec::SimulatedCrash &e) {
        std::fprintf(stderr,
                     "campaign: simulated crash: %s\n"
                     "campaign: rerun with the same --journal to "
                     "resume\n",
                     e.what());
        return 3;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign: %s\n", e.what());
        return 1;
    }
}
