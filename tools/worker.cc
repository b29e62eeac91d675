/**
 * @file
 * worker — TCP worker daemon of the distributed campaign backend.
 *
 * Connects to a `campaign --listen` controller, handshakes, and
 * serves leased simulation jobs until the controller shuts the
 * campaign down:
 *
 *     worker --connect 127.0.0.1:7000
 *     worker --connect host:7000 --slots 4 --name rack2-a
 *     worker --connect host:7000 --isolation process \
 *            --mem-limit-mb 512 --hard-deadline-ms 2000
 *     worker --connect host:7000 --inject-label \
 *            "mcf:":1:drop-connection          # reclaim drill
 *
 * Under --isolation process the attempts run in this daemon's own
 * forked sandbox pool, so a SIGSEGV or OOM costs one attempt, not
 * the daemon; under thread (the default) they run in-process.
 * --inject-label drills raise deterministic faults — including the
 * network kinds (drop-connection, stall-heartbeat, corrupt-frame,
 * partition, reconnect-storm, slow-loris, duplicate-session,
 * token-mismatch) that exercise the controller's lease reclaim,
 * session resume, auth, and late-result paths.
 *
 * Hardening: --auth-token-file answers the controller's HMAC
 * challenge; --reconnect N rides out broken connections by resuming
 * the same session (held leases hand back, no requeue) when the
 * controller's grace window allows; SIGTERM drains gracefully — the
 * worker announces Drain, finishes held cells, and exits 0.
 *
 * Exit codes: 0 controller shutdown or drain (clean end), 1 session
 * failure (connection lost past --reconnect, handshake rejected),
 * 2 usage error.
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

#include "cli_options.hh"
#include "exec/fault_injection.hh"
#include "exec/net/auth.hh"
#include "exec/net/remote_worker.hh"
#include "exec/proc/worker_pool.hh"

namespace
{

using rigor::exec::FaultKind;
using rigor::tools::ArgCursor;

/** Set by the SIGTERM handler; watched by the worker's heartbeat
 *  thread, which announces the drain to the controller. */
std::atomic<bool> g_drainRequested{false};

void
requestDrain(int)
{
    g_drainRequested.store(true);
}

struct CliOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    bool haveConnect = false;
    unsigned slots = 1;
    std::string name;
    rigor::exec::IsolationMode isolation =
        rigor::exec::IsolationMode::Thread;
    std::uint64_t memLimitMb = 0;
    unsigned hardDeadlineMs = 0;
    /** Reconnect-and-resume tries after a lost connection. */
    unsigned reconnect = 0;
    /** File holding the shared fleet auth token; empty = none. */
    std::string authTokenFile;
    struct LabelFault
    {
        std::string substring;
        unsigned attempt;
        FaultKind kind;
    };
    std::vector<LabelFault> injectLabel;
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --connect HOST:PORT [options]\n"
        "\n"
        "Serve leased simulation jobs for a distributed campaign\n"
        "controller (campaign --listen) until it shuts down.\n"
        "\n"
        "options:\n"
        "  --connect HOST:PORT    controller endpoint (required)\n"
        "  --slots N              concurrent jobs to hold (default 1)\n"
        "  --name S               worker identity recorded as cell\n"
        "                         provenance (default hostname:pid)\n"
        "  --isolation MODE       thread | process; process forks a\n"
        "                         local sandbox pool for the attempts\n"
        "  --mem-limit-mb N       per-sandbox memory cap in MiB\n"
        "  --hard-deadline-ms N   SIGKILL a sandbox attempt past this\n"
        "  --reconnect N          after a lost connection, reconnect\n"
        "                         and resume the session up to N\n"
        "                         times (held leases hand back when\n"
        "                         the controller's grace allows)\n"
        "  --auth-token-file PATH shared fleet token answering the\n"
        "                         controller's HMAC challenge\n"
        "  --inject-label S:A:KIND  fault attempt A of jobs whose\n"
        "                         label contains S (KIND: transient|\n"
        "                         permanent|hang|segfault|abort|\n"
        "                         busy-loop|alloc-bomb|kill|\n"
        "                         drop-connection|stall-heartbeat|\n"
        "                         corrupt-frame|partition|\n"
        "                         reconnect-storm|slow-loris|\n"
        "                         duplicate-session|token-mismatch)\n"
        "  --help                 show this help\n",
        argv0);
    return 2;
}

bool
parseArgs(int argc, char **argv, CliOptions &options)
{
    ArgCursor args(argc, argv, "worker");
    while (!args.done()) {
        const std::string arg = args.take();
        if (arg == "--connect") {
            const char *v = args.valueFor("--connect");
            if (v == nullptr ||
                !rigor::tools::parseEndpoint(v, options.host,
                                             options.port)) {
                if (v != nullptr)
                    std::fprintf(stderr,
                                 "worker: bad --connect endpoint "
                                 "%s (want HOST:PORT)\n",
                                 v);
                return false;
            }
            options.haveConnect = true;
        } else if (arg == "--slots") {
            const char *v = args.valueFor("--slots");
            if (v == nullptr ||
                !rigor::tools::parseUnsigned(v, options.slots) ||
                options.slots == 0) {
                if (v != nullptr)
                    std::fprintf(stderr,
                                 "worker: --slots must be a "
                                 "positive count\n");
                return false;
            }
        } else if (arg == "--name") {
            const char *v = args.valueFor("--name");
            if (v == nullptr)
                return false;
            options.name = v;
        } else if (arg == "--isolation") {
            const char *v = args.valueFor("--isolation");
            if (v == nullptr)
                return false;
            if (!rigor::exec::parseIsolationMode(v,
                                                 options.isolation)) {
                std::fprintf(stderr,
                             "worker: unknown --isolation mode %s "
                             "(want thread | process)\n",
                             v);
                return false;
            }
        } else if (arg == "--mem-limit-mb") {
            const char *v = args.valueFor("--mem-limit-mb");
            if (v == nullptr ||
                !rigor::tools::parseUint64(v, options.memLimitMb))
                return false;
        } else if (arg == "--hard-deadline-ms") {
            const char *v = args.valueFor("--hard-deadline-ms");
            if (v == nullptr ||
                !rigor::tools::parseUnsigned(
                    v, options.hardDeadlineMs))
                return false;
        } else if (arg == "--reconnect") {
            const char *v = args.valueFor("--reconnect");
            if (v == nullptr ||
                !rigor::tools::parseUnsigned(v, options.reconnect))
                return false;
        } else if (arg == "--auth-token-file") {
            const char *v = args.valueFor("--auth-token-file");
            if (v == nullptr)
                return false;
            options.authTokenFile = v;
        } else if (arg == "--inject-label") {
            const char *v = args.valueFor("--inject-label");
            if (v == nullptr)
                return false;
            CliOptions::LabelFault fault{};
            if (!rigor::tools::parseFaultSpec(v, fault.substring,
                                              fault.attempt,
                                              fault.kind)) {
                std::fprintf(stderr,
                             "worker: bad --inject-label spec %s\n",
                             v);
                return false;
            }
            options.injectLabel.push_back(std::move(fault));
        } else if (arg == "--help" || arg == "-h") {
            return false;
        } else {
            std::fprintf(stderr, "worker: unknown option %s\n",
                         arg.c_str());
            return false;
        }
    }
    if (!options.haveConnect || options.port == 0) {
        std::fprintf(stderr,
                     "worker: --connect HOST:PORT is required\n");
        return false;
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

    try {
        // The attempt executor served to the controller: the
        // in-process simulator, optionally behind a local sandbox
        // pool (process isolation), optionally behind the drill
        // injector — drills raised here run on the worker, so the
        // network kinds misbehave on the live connection.
        rigor::exec::SimulateFn simulate;
        std::unique_ptr<rigor::exec::proc::ProcWorkerPool> pool;
        if (cli.isolation ==
            rigor::exec::IsolationMode::Process) {
            rigor::exec::proc::ProcWorkerPool::Options pool_opts;
            pool_opts.workers = cli.slots;
            pool_opts.memLimitMb = cli.memLimitMb;
            pool_opts.hardDeadline =
                std::chrono::milliseconds(cli.hardDeadlineMs);
            pool = std::make_unique<
                rigor::exec::proc::ProcWorkerPool>(
                std::move(pool_opts));
            simulate = pool->simulateFn();
        }

        rigor::exec::FaultInjector injector;
        for (const CliOptions::LabelFault &f : cli.injectLabel)
            injector.addLabelFault(f.substring, f.attempt, f.kind);
        if (injector.plannedFaults() != 0)
            simulate = injector.wrap(std::move(simulate));

        rigor::exec::net::RemoteWorkerOptions opts;
        opts.host = cli.host;
        opts.port = cli.port;
        opts.slots = cli.slots;
        opts.name = cli.name;
        opts.simulate = std::move(simulate);
        opts.reconnectAttempts = cli.reconnect;
        opts.drainFlag = &g_drainRequested;
        if (!cli.authTokenFile.empty())
            opts.authToken =
                rigor::exec::net::loadAuthToken(cli.authTokenFile);
        std::signal(SIGTERM, requestDrain);

        // Mid-session reconnects (with lease handback) happen inside
        // runRemoteWorker; this loop only retries the initial connect,
        // drawing on the same --reconnect budget.
        unsigned connect_tries = cli.reconnect + 1;
        rigor::exec::net::RemoteWorkerSession session;
        while (true) {
            try {
                session = rigor::exec::net::runRemoteWorker(opts);
                break;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "worker: %s\n", e.what());
                if (--connect_tries == 0)
                    return 1;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
            }
        }
        std::fprintf(
            stderr,
            "worker: session ended (%s), %llu job(s) served, "
            "%u resume(s)%s%s\n",
            rigor::exec::net::toString(session.end).c_str(),
            static_cast<unsigned long long>(session.jobsServed),
            session.resumes,
            session.error.empty() ? "" : ": ",
            session.error.c_str());
        switch (session.end) {
          case rigor::exec::net::SessionEnd::Shutdown:
          case rigor::exec::net::SessionEnd::Drained:
            return 0;
          case rigor::exec::net::SessionEnd::ConnectionLost:
          case rigor::exec::net::SessionEnd::Rejected:
            return 1;
        }
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "worker: %s\n", e.what());
        return 1;
    }
}
