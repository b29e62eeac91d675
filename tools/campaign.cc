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
 *              --manifest-out run.jsonl --bench-out BENCH_4.json
 *     campaign --listen 127.0.0.1:0 --workers 3 --port-file port \
 *              --lease-ms 4000 --heartbeat-ms 500   # distributed
 *
 * The trace JSON loads directly in chrome://tracing / Perfetto; the
 * manifest is one JSON object per line (campaign / cell / phase /
 * summary records); the metrics JSON snapshots every engine counter,
 * gauge, and histogram.
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
#include <fstream>
#include <memory>
#include <stdexcept>
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
#include "obs/bench_report.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "trace/workloads.hh"

namespace
{

using rigor::exec::FaultKind;
using rigor::tools::ArgCursor;
using rigor::tools::CampaignCliOptions;

/** Set by the SIGTERM handler; watched by the drain thread. */
std::atomic<bool> g_drainRequested{false};

void
requestDrain(int)
{
    g_drainRequested.store(true);
}

struct CliOptions
{
    std::vector<std::string> workloads;
    std::uint64_t instructions = 20000;
    std::uint64_t warmup = 0;
    /** With --sample: refine statistically ambiguous cells for up
     *  to N total rounds (0 = single-pass screen). */
    unsigned adaptiveRounds = 0;
    CampaignCliOptions campaign;
    std::size_t crashAfter = 0; // 0 = no crash drill
    bool haveCrashAfter = false;
    struct IndexFault
    {
        std::size_t job;
        unsigned attempt;
        FaultKind kind;
    };
    struct LabelFault
    {
        std::string substring;
        unsigned attempt;
        FaultKind kind;
    };
    std::vector<IndexFault> inject;
    std::vector<LabelFault> injectLabel;
    double randomRate = 0.0;
    std::uint64_t randomSeed = 0;
    bool haveRandom = false;
    bool quiet = false;
    /** Remote: write the bound controller port here (CI rendezvous
     *  with kernel-assigned ports). */
    std::string portFile;
    /** Remote: how long to wait for --workers to connect. */
    unsigned workerWaitMs = 30000;
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "\n"
        "Run the 43-factor Plackett-Burman screening campaign with\n"
        "fault tolerance, crash-safe journaling, fault drills, and\n"
        "observability sinks (metrics, Perfetto trace, manifest).\n"
        "\n"
        "options:\n"
        "  --workloads a,b,c      benchmarks to run (default: all 13)\n"
        "  --instructions N       measured instructions per run\n"
        "  --warmup N             warm-up instructions per run\n"
        "%s"
        "  --adaptive-rounds N    with --sample: re-run benchmarks\n"
        "                         whose top-factor effects are inside\n"
        "                         their CI with a denser schedule, up\n"
        "                         to N total rounds\n"
        "  --crash-after N        crash drill: die after N appends\n"
        "  --inject J:A:KIND      fault job J, attempt A\n"
        "                         (KIND: transient|permanent|hang|\n"
        "                          segfault|abort|busy-loop|\n"
        "                          alloc-bomb|kill; the last five\n"
        "                          need --isolation process)\n"
        "  --inject-label S:A:KIND  fault jobs whose label contains S\n"
        "                         (also: drop-connection|\n"
        "                          stall-heartbeat|corrupt-frame on a\n"
        "                          remote worker's --inject-label)\n"
        "  --inject-random R:SEED   seeded transient storm at rate R\n"
        "  --port-file PATH       remote: write the bound controller\n"
        "                         port (rendezvous for port 0)\n"
        "  --worker-wait-ms N     remote: wait this long for --workers\n"
        "                         to connect (default 30000)\n"
        "  --quiet                suppress the rank table\n"
        "  --help                 show this help\n",
        argv0, CampaignCliOptions::usageText());
    return 2;
}

using rigor::tools::parseFaultSpec;

bool
parseArgs(int argc, char **argv, CliOptions &options)
{
    ArgCursor args(argc, argv, "campaign");
    while (!args.done()) {
        const std::string arg = args.take();
        switch (options.campaign.tryParse(args, arg)) {
        case CampaignCliOptions::Match::Consumed:
            continue;
        case CampaignCliOptions::Match::Error:
            return false;
        case CampaignCliOptions::Match::NotMine:
            break;
        }
        if (arg == "--workloads") {
            const char *v = args.valueFor("--workloads");
            if (v == nullptr ||
                !rigor::tools::splitList(v, options.workloads))
                return false;
        } else if (arg == "--instructions") {
            const char *v = args.valueFor("--instructions");
            if (v == nullptr ||
                !rigor::tools::parseUint64(v, options.instructions))
                return false;
        } else if (arg == "--warmup") {
            const char *v = args.valueFor("--warmup");
            if (v == nullptr ||
                !rigor::tools::parseUint64(v, options.warmup))
                return false;
        } else if (arg == "--adaptive-rounds") {
            const char *v = args.valueFor("--adaptive-rounds");
            if (v == nullptr ||
                !rigor::tools::parseUnsigned(
                    v, options.adaptiveRounds) ||
                options.adaptiveRounds == 0) {
                if (v != nullptr)
                    std::fprintf(stderr,
                                 "campaign: --adaptive-rounds must "
                                 "be a positive round count\n");
                return false;
            }
        } else if (arg == "--crash-after") {
            const char *v = args.valueFor("--crash-after");
            if (v == nullptr ||
                !rigor::tools::parseSize(v, options.crashAfter))
                return false;
            options.haveCrashAfter = true;
        } else if (arg == "--inject") {
            const char *v = args.valueFor("--inject");
            if (v == nullptr)
                return false;
            std::string head;
            CliOptions::IndexFault fault{};
            if (!parseFaultSpec(v, head, fault.attempt, fault.kind))
                return false;
            if (!rigor::tools::parseSize(head.c_str(), fault.job))
                return false;
            options.inject.push_back(fault);
        } else if (arg == "--inject-label") {
            const char *v = args.valueFor("--inject-label");
            if (v == nullptr)
                return false;
            CliOptions::LabelFault fault{};
            if (!parseFaultSpec(v, fault.substring, fault.attempt,
                                fault.kind))
                return false;
            options.injectLabel.push_back(std::move(fault));
        } else if (arg == "--inject-random") {
            const char *v = args.valueFor("--inject-random");
            if (v == nullptr)
                return false;
            const std::string spec = v;
            const std::size_t colon = spec.find(':');
            if (colon == std::string::npos)
                return false;
            if (!rigor::tools::parseDouble(
                    spec.substr(0, colon).c_str(),
                    options.randomRate) ||
                !rigor::tools::parseUint64(
                    spec.substr(colon + 1).c_str(),
                    options.randomSeed))
                return false;
            options.haveRandom = true;
        } else if (arg == "--port-file") {
            const char *v = args.valueFor("--port-file");
            if (v == nullptr)
                return false;
            options.portFile = v;
        } else if (arg == "--worker-wait-ms") {
            const char *v = args.valueFor("--worker-wait-ms");
            if (v == nullptr ||
                !rigor::tools::parseUnsigned(v,
                                             options.workerWaitMs))
                return false;
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            return false;
        } else {
            std::fprintf(stderr, "campaign: unknown option %s\n",
                         arg.c_str());
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    if (!parseArgs(argc, argv, cli))
        return usage(argv[0]);
    if (cli.campaign.remote &&
        cli.campaign.heartbeatMs * 2 >= cli.campaign.leaseMs) {
        // Mirrors the pre-flight rule campaign.heartbeat-too-coarse:
        // a heartbeat at (or past) half the lease leaves at most one
        // beacon of margin, so one delayed packet reclaims a healthy
        // worker's leases.
        std::fprintf(stderr,
                     "campaign: --heartbeat-ms %u is too coarse for "
                     "--lease-ms %u (the heartbeat must be under "
                     "half the lease)\n",
                     cli.campaign.heartbeatMs, cli.campaign.leaseMs);
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

        const rigor::exec::FaultPolicy policy =
            cli.campaign.faultPolicy();

        // The fault-injection plan (empty = the real simulator).
        rigor::exec::FaultInjector injector;
        for (const CliOptions::IndexFault &f : cli.inject)
            injector.addFault(f.job, f.attempt, f.kind);
        for (const CliOptions::LabelFault &f : cli.injectLabel)
            injector.addLabelFault(f.substring, f.attempt, f.kind);
        if (cli.haveRandom) {
            const std::size_t rows = cli.campaign.foldover ? 88 : 44;
            injector.planRandomTransients(workloads.size() * rows,
                                          policy.attempts(),
                                          cli.randomRate,
                                          cli.randomSeed);
        }

        rigor::exec::EngineOptions engine_opts;
        engine_opts.threads = cli.campaign.threads;
        if (injector.plannedFaults() != 0)
            engine_opts.simulate = injector.wrap();
        rigor::exec::SimulationEngine engine(engine_opts);

        std::unique_ptr<rigor::exec::ResultJournal> journal;
        if (!cli.campaign.journalPath.empty()) {
            journal = std::make_unique<rigor::exec::ResultJournal>(
                cli.campaign.journalPath);
            if (journal->loadedRecords() != 0)
                std::fprintf(
                    stderr,
                    "campaign: resuming against %s (%zu completed "
                    "runs on disk%s)\n",
                    cli.campaign.journalPath.c_str(),
                    journal->loadedRecords(),
                    journal->tornRecords() != 0
                        ? ", torn final record discarded"
                        : "");
            if (cli.haveCrashAfter)
                journal->simulateCrashAfter(cli.crashAfter);
        } else if (cli.haveCrashAfter) {
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
        if (cli.campaign.remote) {
            rigor::exec::net::ControllerOptions net_opts;
            net_opts.bindAddress = cli.campaign.listenAddress;
            net_opts.port = static_cast<std::uint16_t>(
                cli.campaign.listenPort);
            net_opts.lease =
                std::chrono::milliseconds(cli.campaign.leaseMs);
            net_opts.heartbeat =
                std::chrono::milliseconds(cli.campaign.heartbeatMs);
            net_opts.sessionGrace = std::chrono::milliseconds(
                cli.campaign.sessionGraceMs);
            if (!cli.campaign.authTokenFile.empty())
                net_opts.authToken = rigor::exec::net::loadAuthToken(
                    cli.campaign.authTokenFile);
            controller = std::make_unique<
                rigor::exec::net::CampaignController>(net_opts);
            if (!cli.campaign.metricsOut.empty())
                controller->setMetrics(&metrics);
            const bool want_manifest =
                !cli.campaign.manifestOut.empty();
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
                         cli.campaign.listenAddress.c_str(),
                         static_cast<unsigned>(controller->port()));
            if (!cli.portFile.empty()) {
                std::ofstream out(cli.portFile,
                                  std::ios::binary | std::ios::trunc);
                if (!out)
                    throw std::runtime_error(
                        "cannot open '" + cli.portFile +
                        "' for writing");
                out << controller->port() << '\n';
                if (!out)
                    throw std::runtime_error("write to '" +
                                             cli.portFile +
                                             "' failed");
            }
            if (cli.campaign.remoteWorkers != 0 &&
                !controller->waitForWorkers(
                    cli.campaign.remoteWorkers,
                    std::chrono::milliseconds(cli.workerWaitMs))) {
                std::fprintf(
                    stderr,
                    "campaign: only %u of %u workers connected "
                    "within %u ms\n",
                    controller->connectedWorkers(),
                    cli.campaign.remoteWorkers, cli.workerWaitMs);
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
                                std::chrono::milliseconds(
                                    cli.campaign.leaseMs + 1000));
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

        rigor::methodology::PbExperimentOptions opts;
        opts.instructionsPerRun = cli.instructions;
        opts.warmupInstructions = cli.warmup;
        cli.campaign.apply(opts.campaign);
        opts.campaign.engine = &engine;
        opts.campaign.journal = journal.get();
        opts.campaign.netController = controller.get();
        if (!cli.campaign.metricsOut.empty())
            opts.campaign.metrics = &metrics;
        if (!cli.campaign.traceOut.empty())
            opts.campaign.trace = &trace;
        if (!cli.campaign.manifestOut.empty())
            opts.campaign.manifest = &manifest;

        if (cli.adaptiveRounds != 0 &&
            !opts.campaign.sampling.enabled) {
            std::fprintf(stderr,
                         "campaign: --adaptive-rounds needs "
                         "--sample\n");
            return 2;
        }
        if (cli.campaign.replicates != 0 &&
            cli.adaptiveRounds != 0) {
            std::fprintf(stderr,
                         "campaign: --replicates and "
                         "--adaptive-rounds are mutually "
                         "exclusive\n");
            return 2;
        }
        if (!cli.campaign.stabilityOut.empty() &&
            cli.campaign.replicates == 0) {
            std::fprintf(stderr,
                         "campaign: --stability-out needs "
                         "--replicates\n");
            return 2;
        }

        rigor::methodology::PbExperimentResult result;
        try {
        if (cli.campaign.replicates != 0) {
            rigor::methodology::RankStabilityOptions stability;
            stability.base = opts;
            rigor::methodology::ReplicatedPbResult outcome =
                rigor::methodology::runReplicatedPbExperiment(
                    workloads, stability);
            if (!cli.quiet)
                std::fprintf(
                    stdout, "%s",
                    outcome.stability.toString().c_str());
            if (!cli.campaign.stabilityOut.empty()) {
                std::ofstream out(cli.campaign.stabilityOut,
                                  std::ios::binary |
                                      std::ios::trunc);
                if (!out)
                    throw std::runtime_error(
                        "cannot open '" +
                        cli.campaign.stabilityOut +
                        "' for writing");
                out << outcome.stability.toJson() << '\n';
                if (!out)
                    throw std::runtime_error(
                        "write to '" + cli.campaign.stabilityOut +
                        "' failed");
            }
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
            if (!cli.campaign.metricsOut.empty())
                metrics.writeTo(cli.campaign.metricsOut);
            if (!cli.campaign.traceOut.empty())
                trace.writeTo(cli.campaign.traceOut);
            if (!cli.campaign.manifestOut.empty())
                manifest.writeTo(cli.campaign.manifestOut);
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
        const rigor::exec::ProgressSnapshot progress =
            engine.progress().snapshot();
        std::fprintf(stderr, "campaign: %s\n",
                     progress.toString().c_str());

        if (!cli.campaign.metricsOut.empty())
            metrics.writeTo(cli.campaign.metricsOut);
        if (!cli.campaign.traceOut.empty())
            trace.writeTo(cli.campaign.traceOut);
        if (!cli.campaign.manifestOut.empty())
            manifest.writeTo(cli.campaign.manifestOut);
        if (!cli.campaign.benchOut.empty()) {
            rigor::obs::BenchReport report;
            report.name = "campaign_pb_screen";
            report.wallSeconds = progress.wallSeconds;
            report.runsTotal = progress.runsTotal;
            report.runsCompleted = progress.runsCompleted;
            report.runsPerSecond =
                progress.wallSeconds > 0.0
                    ? static_cast<double>(progress.runsCompleted) /
                          progress.wallSeconds
                    : 0.0;
            report.simulatedInstructions =
                progress.simulatedInstructions;
            report.mips =
                progress.wallSeconds > 0.0
                    ? static_cast<double>(
                          progress.simulatedInstructions) /
                          progress.wallSeconds / 1e6
                    : 0.0;
            report.threads = engine.threads();
            report.cacheHits = progress.cacheHits;
            report.journalHits = progress.journalHits;
            report.sampled = cli.campaign.sample;
            if (report.sampled)
                report.sampledMips = report.mips;
            rigor::obs::writeBenchReport(cli.campaign.benchOut,
                                         report);
        }
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
