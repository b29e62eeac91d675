/**
 * @file
 * Worker side of the distributed campaign backend.
 *
 * runRemoteWorker connects to a CampaignController, handshakes
 * (Hello/HelloAck, an HMAC AuthProof when the controller demands one,
 * SessionAck), and serves leased jobs until the controller says
 * Shutdown or the connection dies: a heartbeat thread beacons at the
 * cadence the controller advertised, and `slots` executor threads
 * pull JobAssign frames off the session queue, run them through the
 * attempt codec (exec/proc/sandbox_worker.hh) with the configured
 * SimulateFn (the in-process simulator by default; a ProcWorkerPool
 * dispatch function for sandboxed execution; a FaultInjector wrap
 * for drills), and answer JobDone with its JobResult.
 *
 * Session resume. The worker presents a durable session id in every
 * Hello. When the connection breaks mid-lease (network flake, drill)
 * and reconnectAttempts allows it, runRemoteWorker reconnects with
 * the same id and declares the leases it still holds: queued
 * assignments keep executing under their original leases, and results
 * computed during the partition are handed back on the new connection
 * — the controller sees zero requeues. Only when the controller
 * refuses to resume (grace window lapsed) is the carried-over state
 * discarded; the controller has requeued those cells elsewhere.
 *
 * Drain. A caller-owned atomic flag (options.drainFlag, typically
 * flipped by a SIGTERM handler) makes the worker announce Drain to
 * the controller — which stops granting it leases — finish whatever
 * it already holds, and close the session with SessionEnd::Drained.
 *
 * Network fault drills: a NetDrillFault thrown by the injector is
 * intercepted here and turned into the real misbehavior on the live
 * connection — DropConnection slams the socket shut mid-lease,
 * StallHeartbeat goes silent for twice the lease and then answers on
 * the (by now reclaimed) stale lease, CorruptFrame sends a
 * deliberately truncated frame, Partition drops the connection but
 * keeps the job for the resumed session, ReconnectStorm follows a
 * partition with rapid connect/resume/disconnect cycles, SlowLoris
 * trickles a result frame byte by byte, DuplicateSession and
 * TokenMismatch probe the controller with rogue handshakes — so the
 * controller's reclaim, resume, auth, and late-result paths are all
 * testable deterministically.
 */

#ifndef RIGOR_EXEC_NET_REMOTE_WORKER_HH
#define RIGOR_EXEC_NET_REMOTE_WORKER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "exec/engine.hh"
#include "exec/proc/sandbox_worker.hh"

namespace rigor::exec::net
{

/** One worker session's knobs. */
struct RemoteWorkerOptions
{
    /** Controller address. */
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Concurrent jobs to hold (executor threads). */
    unsigned slots = 1;
    /** Worker identity recorded as cell provenance; empty =
     *  "hostname:pid". */
    std::string name;
    /**
     * Attempt executor; empty = the engine's deadline-guarded
     * in-process simulator. Pass a ProcWorkerPool::simulateFn() for
     * sandboxed execution, or a FaultInjector::wrap() for drills.
     */
    SimulateFn simulate;
    /** Rebuilds enhancement hooks for hasHook requests; a hooked
     *  request without one fails permanent. */
    proc::SandboxHookFactory hookFactory;
    /** Durable session identity presented in every Hello; empty =
     *  generated once per runRemoteWorker call ("<name>/<nonce>"). */
    std::string sessionId;
    /** Shared fleet token for the HMAC challenge-response; must
     *  match the controller's when it requires authentication. */
    std::string authToken;
    /** Reconnect-and-resume tries after a lost connection (the
     *  initial connect failure still throws). 0 = the pre-session
     *  behavior: one connection, then report ConnectionLost. */
    unsigned reconnectAttempts = 0;
    /** Pause between reconnect tries. */
    std::chrono::milliseconds reconnectDelay{200};
    /** Caller-owned drain signal (e.g. flipped on SIGTERM): announce
     *  Drain, finish held cells, end with SessionEnd::Drained. */
    std::atomic<bool> *drainFlag = nullptr;
};

/** Why the session ended. */
enum class SessionEnd
{
    /** The controller sent Shutdown: clean campaign end. */
    Shutdown,
    /** EOF / I/O / protocol failure on the connection (after any
     *  allowed reconnects were used up). */
    ConnectionLost,
    /** The controller rejected the handshake. */
    Rejected,
    /** The drain flag was honored: held cells finished, session
     *  closed deliberately. */
    Drained,
};

/** Display name ("shutdown" / "connection-lost" / "rejected" /
 *  "drained"). */
std::string toString(SessionEnd end);

/** What one runRemoteWorker call did (across reconnects). */
struct RemoteWorkerSession
{
    SessionEnd end = SessionEnd::ConnectionLost;
    /** Jobs answered (accepted leases, any result status), summed
     *  over every connection of this call. */
    std::uint64_t jobsServed = 0;
    /** Successful session resumes (controller kept our leases). */
    unsigned resumes = 0;
    /** Rejection reason / connection error; empty on Shutdown. */
    std::string error;
};

/**
 * Serve one controller session to completion (blocking), reconnecting
 * and resuming up to options.reconnectAttempts times when the
 * connection breaks. Throws std::runtime_error only when the initial
 * connect fails; everything after that is reported in the returned
 * session record.
 */
RemoteWorkerSession runRemoteWorker(const RemoteWorkerOptions &options);

} // namespace rigor::exec::net

#endif // RIGOR_EXEC_NET_REMOTE_WORKER_HH
