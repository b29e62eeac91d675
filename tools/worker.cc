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

/** Set by the SIGTERM handler; watched by the worker's heartbeat
 *  thread, which announces the drain to the controller. */
std::atomic<bool> g_drainRequested{false};

void
requestDrain(int)
{
    g_drainRequested.store(true);
}

constexpr const char *kSynopsis =
    "--connect HOST:PORT [options]\n"
    "\n"
    "Serve leased simulation jobs for a distributed campaign\n"
    "controller (campaign --listen) until it shuts down.";

} // namespace

int
main(int argc, char **argv)
{
    namespace tools = rigor::tools;
    rigor::exec::net::RemoteWorkerOptions opts;
    rigor::exec::proc::ProcWorkerPool::Options pool_opts;
    tools::Isolation isolation = tools::Isolation::Thread;
    std::string auth_token_file;
    rigor::exec::FaultInjector injector;
    tools::FlagTable flags = {
        {"--connect", "HOST:PORT", "controller endpoint (required)",
         [&opts](const char *value, std::string &want) {
             want = "want HOST:PORT";
             return tools::parseEndpoint(value, opts.host, opts.port);
         }},
        {"--slots", "N", "concurrent jobs to hold (default 1)",
         tools::number(opts.slots, tools::Bound::Positive)},
        {"--name", "S",
         "worker identity recorded as cell provenance (default "
         "hostname:pid)",
         tools::text(opts.name)},
        {"--reconnect", "N",
         "after a lost connection, reconnect and resume the session up "
         "to N times (held leases hand back when the controller's "
         "grace allows)",
         tools::number(opts.reconnectAttempts)},
        tools::injectLabelFlag(injector),
    };
    const tools::FlagTable sandbox =
        tools::sandboxFlags(isolation, false, pool_opts, auth_token_file);
    flags.insert(flags.end(), sandbox.begin(), sandbox.end());
    if (!tools::parseFlags(argc, argv, "worker", flags))
        return tools::printUsage(argv[0], kSynopsis, flags);
    if (opts.port == 0) {
        std::fprintf(stderr, "worker: --connect HOST:PORT is required\n");
        return tools::printUsage(argv[0], kSynopsis, flags);
    }

    try {
        // The attempt executor served to the controller: the
        // in-process simulator, optionally behind a local sandbox
        // pool (process isolation), optionally behind the drill
        // injector — drills raised here run on the worker, so the
        // network kinds misbehave on the live connection.
        rigor::exec::SimulateFn simulate;
        std::unique_ptr<rigor::exec::proc::ProcWorkerPool> pool;
        if (isolation == tools::Isolation::Process) {
            pool_opts.workers = opts.slots;
            pool = std::make_unique<
                rigor::exec::proc::ProcWorkerPool>(
                std::move(pool_opts));
            simulate = pool->simulateFn();
        }

        if (injector.plannedFaults() != 0)
            simulate = injector.wrap(std::move(simulate));

        opts.simulate = std::move(simulate);
        opts.drainFlag = &g_drainRequested;
        if (!auth_token_file.empty())
            opts.authToken =
                rigor::exec::net::loadAuthToken(auth_token_file);
        std::signal(SIGTERM, requestDrain);

        // Mid-session reconnects (with lease handback) happen inside
        // runRemoteWorker; this loop only retries the initial connect,
        // drawing on the same --reconnect budget.
        unsigned connect_tries = opts.reconnectAttempts + 1;
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
