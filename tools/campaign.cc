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
 *     campaign --listen 127.0.0.1:0 --workers 3 --port-file port \
 *              --lease-ms 4000 --heartbeat-ms 500   # distributed
 *
 * The trace JSON loads directly in chrome://tracing / Perfetto; the
 * manifest is one JSON object per line (campaign / cell / phase /
 * summary records; the summary's runs, instructions and wall time
 * are the campaign's throughput record); the metrics JSON snapshots
 * every engine counter, gauge, and histogram.
 *
 * Distributed hardening: --auth-token-file demands an HMAC
 * challenge-response from every worker before a lease is granted;
 * --session-grace-ms parks a disconnected worker's leases awaiting a
 * session resume instead of requeueing; SIGTERM drains gracefully —
 * no new leases, in-flight cells finish, sinks flush, and the journal
 * resumes the remainder.
 *
 * Exit codes: 0 success (possibly degraded, with warnings printed),
 * 1 campaign failure, 2 usage error, 3 simulated crash (resume with
 * the same --journal), 4 drained on SIGTERM (resume with the same
 * --journal).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/campaign_check.hh"
#include "cli_options.hh"
#include "exec/fault_injection.hh"
#include "exec/journal.hh"
#include "exec/net/auth.hh"
#include "exec/net/controller.hh"
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

/** Set by the SIGTERM handler; watched by the drain thread. */
std::atomic<bool> g_drainRequested{false};

void
requestDrain(int)
{
    g_drainRequested.store(true);
}

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
    if (cli.remote && cli.net.heartbeat * 2 >= cli.net.lease) {
        // Mirrors the pre-flight rule campaign.heartbeat-too-coarse:
        // a heartbeat at (or past) half the lease leaves at most one
        // beacon of margin, so one delayed packet reclaims a healthy
        // worker's leases.
        std::fprintf(stderr,
                     "campaign: --heartbeat-ms %lld is too coarse for "
                     "--lease-ms %lld (the heartbeat must be under "
                     "half the lease)\n",
                     static_cast<long long>(cli.net.heartbeat.count()),
                     static_cast<long long>(cli.net.lease.count()));
        return 2;
    }

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

        // Remote execution: bring up the lease-granting controller
        // and wait for the fleet before any cell is queued. Declared
        // after the manifest so its lease observer (which feeds the
        // manifest) outlives every controller thread.
        std::unique_ptr<rigor::exec::net::CampaignController>
            controller;
        if (cli.remote) {
            if (!cli.authTokenFile.empty())
                cli.net.authToken =
                    rigor::exec::net::loadAuthToken(cli.authTokenFile);
            controller = std::make_unique<
                rigor::exec::net::CampaignController>(cli.net);
            if (!cli.metricsOut.empty())
                controller->setMetrics(&metrics);
            const bool want_manifest = !cli.manifestOut.empty();
            controller->setLeaseObserver(
                [&manifest, want_manifest](
                    const rigor::exec::net::LeaseEvent &event) {
                    const std::string kind =
                        rigor::exec::net::toString(event.kind);
                    std::fprintf(
                        stderr,
                        "campaign: %s worker=%s%s%s%s%s%s%s\n",
                        kind.c_str(), event.worker.c_str(),
                        event.session.empty() ? "" : " session=",
                        event.session.c_str(),
                        event.label.empty() ? "" : " cell=",
                        event.label.c_str(),
                        event.detail.empty() ? "" : ": ",
                        event.detail.c_str());
                    if (!want_manifest)
                        return;
                    rigor::obs::LeaseEventRecord record;
                    record.kind = kind;
                    record.worker = event.worker;
                    record.session = event.session;
                    record.leaseId = event.leaseId;
                    record.label = event.label;
                    record.detail = event.detail;
                    record.requeues = event.requeues;
                    manifest.addLeaseEvent(record);
                });
            std::fprintf(stderr,
                         "campaign: controller listening on %s:%u\n",
                         cli.net.bindAddress.c_str(),
                         static_cast<unsigned>(controller->port()));
            if (!cli.portFile.empty())
                rigor::obs::writeTextFile(
                    cli.portFile,
                    std::to_string(controller->port()) + '\n');
            if (opts.campaign.remoteWorkers != 0 &&
                !controller->waitForWorkers(opts.campaign.remoteWorkers,
                                            cli.workerWait)) {
                std::fprintf(
                    stderr,
                    "campaign: only %u of %u workers connected "
                    "within %lld ms\n",
                    controller->connectedWorkers(),
                    opts.campaign.remoteWorkers,
                    static_cast<long long>(cli.workerWait.count()));
                return 1;
            }
        }

        // Graceful drain: SIGTERM stops lease granting, lets
        // in-flight cells finish (bounded by one lease plus slack),
        // fails the remainder so the journal can resume them, and
        // exits 4. The watcher thread exists because beginDrain
        // blocks and a signal handler must not; the join guard is
        // declared after the controller so the watcher is stopped
        // before the controller is torn down.
        std::atomic<bool> watcher_stop{false};
        std::thread drain_watcher;
        struct WatcherJoin
        {
            std::atomic<bool> &stop;
            std::thread &thread;
            ~WatcherJoin()
            {
                stop.store(true);
                if (thread.joinable())
                    thread.join();
            }
        } watcher_join{watcher_stop, drain_watcher};
        if (controller != nullptr) {
            std::signal(SIGTERM, requestDrain);
            drain_watcher = std::thread(
                [&watcher_stop, &cli,
                 ctrl = controller.get()]() {
                    while (!watcher_stop.load()) {
                        if (g_drainRequested.load()) {
                            std::fprintf(
                                stderr,
                                "campaign: SIGTERM: draining (no new "
                                "leases; waiting for in-flight "
                                "cells)\n");
                            ctrl->beginDrain(
                                cli.net.lease +
                                std::chrono::milliseconds(1000));
                            return;
                        }
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(50));
                    }
                });
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
        opts.campaign.netController = controller.get();
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
        try {
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
        } catch (const std::exception &e) {
            if (controller == nullptr || !controller->draining())
                throw;
            // A SIGTERM drain deliberately fails the cells it could
            // not finish; everything that did complete is already in
            // the journal, so the same command resumes the remainder.
            if (!cli.metricsOut.empty())
                metrics.writeTo(cli.metricsOut);
            if (!cli.traceOut.empty())
                trace.writeTo(cli.traceOut);
            if (!cli.manifestOut.empty())
                manifest.writeTo(cli.manifestOut);
            std::fprintf(stderr,
                         "campaign: drained: %s\n"
                         "campaign: rerun with the same --journal to "
                         "resume\n",
                         e.what());
            return 4;
        }

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
