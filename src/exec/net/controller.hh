/**
 * @file
 * The lease-granting campaign controller of the distributed backend.
 *
 * CampaignController is to a remote campaign what ProcWorkerPool is
 * to a sandboxed one: an attempt executor the program attaches to
 * its engine (SimulationEngine::setSimulate(simulateFn())). execute()
 * encodes one attempt with the attempt codec
 * (exec/proc/sandbox_worker.hh), queues it, and blocks until a
 * worker's result unwraps into cycles or a fault — so retries,
 * backoff, quarantine, journaling, and bit-identical resume all keep
 * working unchanged on top.
 *
 * Fault model. Each handed-out cell is covered by a time-bounded
 * lease: a worker that goes silent for longer than the lease duration
 * (missed heartbeats) or whose connection breaks has all of its
 * leases reclaimed and the cells requeued onto healthy workers —
 * invisible to the engine, whose attempt is still in flight. Only
 * when the same cell loses its lease on more than maxMigrations
 * distinct workers does the controller give up and throw
 * TransientFault, handing escalation to the existing FaultPolicy
 * retry/backoff machinery (and, with collectFailures, quarantine). A
 * result arriving on a reclaimed lease — the stalled worker woke up
 * late, or a lost worker reconnected — is counted and dropped, never
 * double-recorded: the fsync'd ResultJournal upstream stays the
 * single source of truth and no cell runs twice into it.
 *
 * Liveness bookkeeping is purely heartbeat-driven: a healthy worker
 * may hold one cell for longer than the lease duration as long as it
 * keeps heartbeating — the lease clock measures silence, not runtime
 * — so legitimately slow cells are never reclaimed spuriously.
 *
 * Session resume. A broken connection is not always a dead worker:
 * on a flaky network the same process usually comes right back. Each
 * worker presents a durable session id in its Hello; when its
 * connection breaks while it holds leases, the controller *parks*
 * the session for `sessionGrace` instead of reclaiming — the leases
 * stay live, no cell is requeued. A reconnect with the same session
 * id inside the grace window adopts the parked session: leases the
 * worker still holds (declared in Hello::heldLeases) survive, and
 * results the worker computed during the partition are handed back
 * on the new connection under their original lease ids. Leases the
 * worker no longer remembers, or whose grace window lapsed, fall
 * back to the ordinary reclaim/requeue/migration path. A session id
 * that is already live is rejected (split-brain protection).
 *
 * Authentication. With a non-empty authToken the handshake becomes a
 * challenge-response: HelloAck carries a fresh random nonce and the
 * worker must answer AuthProof = HMAC-SHA256(token, nonce || session
 * id || name) before it is registered or granted anything. Bad,
 * missing, or replayed proofs (a stale proof covers a stale nonce)
 * are counted in net.auth.rejected and the connection is dropped.
 *
 * Drain. beginDrain() stops granting leases, waits (bounded) for
 * in-flight cells to finish, then fails whatever remains with
 * TransientFault — so a SIGTERM'd campaign exits with a journal that
 * resumes exactly where the drain cut it off.
 */

#ifndef RIGOR_EXEC_NET_CONTROLLER_HH
#define RIGOR_EXEC_NET_CONTROLLER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.hh"
#include "exec/net/socket.hh"
#include "exec/proc/protocol.hh"
#include "obs/metrics.hh"

namespace rigor::exec::net
{

/** Controller construction knobs. */
struct ControllerOptions
{
    /** Listen address; localhost by default (tests, CI smoke). */
    std::string bindAddress = "127.0.0.1";
    /** Listen port; 0 = kernel-assigned (read back via port()). */
    std::uint16_t port = 0;
    /** Silence budget per worker: a worker heard nothing from for
     *  this long has its leases reclaimed and cells requeued. */
    std::chrono::milliseconds lease{10000};
    /** Heartbeat cadence advertised to workers in the handshake. */
    std::chrono::milliseconds heartbeat{1000};
    /** Distinct-worker lease losses per cell before the controller
     *  stops migrating it and throws TransientFault. */
    unsigned maxMigrations = 3;
    /**
     * How long a disconnected worker's session (and its leases) is
     * parked awaiting a reconnect before the leases fall back to
     * reclaim/requeue. Zero disables parking: every broken
     * connection reclaims immediately (the pre-session behavior).
     */
    std::chrono::milliseconds sessionGrace{0};
    /**
     * Shared fleet token. Empty disables authentication; non-empty
     * demands an HMAC challenge-response in every handshake before
     * a worker is registered or granted a lease.
     */
    std::string authToken;
};

/** Fleet/lease lifecycle event, delivered to the lease observer from
 *  controller threads (observers must be thread-safe). */
struct LeaseEvent
{
    enum class Kind
    {
        /** A worker completed the handshake. */
        WorkerJoined,
        /** A worker's connection broke (EOF / protocol error). */
        WorkerLost,
        /** A worker went silent past the lease duration; it gets no
         *  new cells until its next heartbeat. */
        WorkerLapsed,
        /** One cell's lease was reclaimed and the cell requeued. */
        LeaseReclaimed,
        /** A result arrived on an already-reclaimed lease and was
         *  rejected (duplicate/late-result protection). */
        LateResult,
        /** A handshake failed authentication (bad/missing/replayed
         *  proof, malformed hello) and was dropped leaseless. */
        AuthRejected,
        /** A handshake presented a session id that is already live
         *  and was dropped (split-brain protection). */
        SessionRejected,
        /** A connection broke while its worker held leases; the
         *  session is parked for the grace window. */
        SessionParked,
        /** A parked session's worker reconnected in time; its
         *  surviving leases stay live (no requeues). */
        SessionResumed,
        /** A parked session outlived the grace window; its leases
         *  fall back to reclaim/requeue. */
        SessionExpired,
        /** A worker announced it is draining; it gets no further
         *  leases while its in-flight cells finish. */
        WorkerDraining,
    };

    Kind kind = Kind::WorkerJoined;
    /** Worker the event concerns. */
    std::string worker;
    /** Durable session id of that worker ("" pre-handshake). */
    std::string session;
    /** Lease id (LeaseReclaimed / LateResult; 0 otherwise). */
    std::uint64_t leaseId = 0;
    /** Cell label (LeaseReclaimed; empty otherwise). */
    std::string label;
    /** Human-readable cause ("heartbeat lapse", "connection lost"). */
    std::string detail;
    /** The cell's lease losses so far (LeaseReclaimed). */
    unsigned requeues = 0;
};

/** Display name of an event kind ("worker-joined", ...). */
std::string toString(LeaseEvent::Kind kind);

/** Per-event callback; must be thread-safe. */
using LeaseObserver = std::function<void(const LeaseEvent &)>;

/** Shards campaign cells across a TCP worker fleet under leases. */
class CampaignController
{
  public:
    explicit CampaignController(const ControllerOptions &options = {});
    ~CampaignController();

    CampaignController(const CampaignController &) = delete;
    CampaignController &operator=(const CampaignController &) = delete;

    /** The port actually bound (resolves port 0). */
    std::uint16_t port() const { return _port; }

    /** Workers currently connected and accepted. */
    unsigned connectedWorkers() const;

    /** Block until @p count workers are connected; false on
     *  timeout. */
    bool waitForWorkers(unsigned count,
                        std::chrono::milliseconds timeout);

    /**
     * Count fleet events in @p metrics (not owned) from here on;
     * nullptr counts them in the controller's own registry. Counters:
     * net.workers.joined, net.workers.lost, net.leases.granted,
     * net.leases.reclaimed, net.results.late, net.sessions.parked,
     * net.sessions.resumed, net.sessions.expired,
     * net.sessions.rejected, net.auth.accepted, net.auth.rejected.
     * Gauge: net.workers.connected. The lifetime getters below read
     * whichever registry counts, so attach before the fleet joins.
     */
    void setMetrics(obs::MetricsRegistry *metrics);

    /** Attach (or detach, with {}) the fleet/lease event observer. */
    void setLeaseObserver(LeaseObserver observer);

    /**
     * Execute one attempt on the fleet (blocks until a worker's
     * result or migration exhaustion) and return it with the serving
     * worker's name as its host. Throws the same taxonomy as the
     * sandbox pool: TransientFault / DeadlineExceeded /
     * ResourceExhausted / PermanentFault.
     */
    CellResult execute(const SimJob &job, const AttemptContext &ctx);

    /** Engine-facing adapter around execute() — the distributed
     *  counterpart of ProcWorkerPool::simulateFn(). */
    SimulateFn simulateFn();

    /**
     * Stop granting leases, wait up to @p waitInFlight for in-flight
     * cells to finish (the lease clock bounds how long a silent
     * worker can stall this), then fail every remaining cell with
     * TransientFault so the campaign unwinds with a resumable
     * journal. Idempotent; safe from a signal-watcher thread.
     */
    void beginDrain(std::chrono::milliseconds waitInFlight);

    /** True once beginDrain() has been called. */
    bool draining() const;

    /** Lifetime totals (for tests and drills), read from the
     *  counters setMetrics resolved. */
    std::uint64_t leasesGranted() const { return total(_leasesGranted); }
    std::uint64_t leasesReclaimed() const { return total(_leasesReclaimed); }
    std::uint64_t lateResults() const { return total(_lateResults); }
    std::uint64_t sessionsParked() const { return total(_sessionsParked); }
    std::uint64_t sessionsResumed() const { return total(_sessionsResumed); }
    std::uint64_t sessionsExpired() const { return total(_sessionsExpired); }
    std::uint64_t sessionsRejected() const { return total(_sessionsRejected); }
    std::uint64_t authAccepted() const { return total(_authAccepted); }
    std::uint64_t authRejected() const { return total(_authRejected); }

  private:
    struct Pending;
    struct Worker;
    struct Lease;

    void acceptLoop();
    void serveConnection(int rawFd);
    /** Run the v2 handshake (validation, auth challenge, session
     *  resume/registration). Returns the registered worker, or
     *  nullptr when the connection was rejected (already counted and
     *  emitted). Throws on transport errors mid-handshake. */
    std::shared_ptr<Worker> performHandshake(OwnedFd &fd);
    void monitorLoop();
    /** Grant queued cells to free, live, un-lapsed workers. */
    void pumpLocked();
    /** Reclaim one lease (erase, count, requeue or escalate).
     *  Returns the iterator past the erased lease. */
    std::map<std::uint64_t, Lease>::iterator
    reclaimLeaseLocked(std::map<std::uint64_t, Lease>::iterator it,
                       const std::string &reason);
    /** Reclaim every lease of @p worker and requeue its cells. */
    void reclaimLeasesLocked(const std::shared_ptr<Worker> &worker,
                             const std::string &reason);
    void workerGoneLocked(const std::shared_ptr<Worker> &worker,
                          const std::string &reason);
    void handleJobDoneLocked(const std::shared_ptr<Worker> &worker,
                             proc::Reader &in);
    /** Count + emit a leaseless handshake rejection. */
    void rejectHandshake(const std::string &name,
                         const std::string &session,
                         const std::string &reason);
    void emitLocked(LeaseEvent event);
    /** Emit a @p kind event about @p worker. */
    void emitLocked(LeaseEvent::Kind kind, const Worker &worker,
                    std::string detail, std::uint64_t lease_id = 0);
    /** Fail every queued and leased cell with the TransientFault
     *  "<before_label><label><after_label>", then forget them and
     *  every parked session. */
    void failCellsLocked(const std::string &before_label,
                         const std::string &after_label);
    /** Read one counter under _mutex. */
    std::uint64_t total(obs::Counter *const &counter) const
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        return counter->value();
    }

    ControllerOptions _options;
    OwnedFd _listener;
    std::uint16_t _port = 0;

    mutable std::mutex _mutex;
    std::condition_variable _cv;
    bool _shutdown = false;
    bool _draining = false;
    std::deque<std::shared_ptr<Pending>> _queue;
    std::map<std::uint64_t, Lease> _leases;
    std::vector<std::shared_ptr<Worker>> _workers;
    /** Disconnected-but-parked sessions, keyed by session id. */
    std::map<std::string, std::shared_ptr<Worker>> _parked;
    /** Fds still inside performHandshake, so the destructor can
     *  unblock their reads. */
    std::set<int> _handshakeFds;
    std::uint64_t _nextLeaseId = 1;
    LeaseObserver _observer;
    /** Counts fleet events while no registry is attached. */
    obs::MetricsRegistry _ownMetrics;
    obs::Counter *_workersJoined = nullptr;
    obs::Counter *_workersLost = nullptr;
    obs::Counter *_leasesGranted = nullptr;
    obs::Counter *_leasesReclaimed = nullptr;
    obs::Counter *_lateResults = nullptr;
    obs::Counter *_sessionsParked = nullptr;
    obs::Counter *_sessionsResumed = nullptr;
    obs::Counter *_sessionsExpired = nullptr;
    obs::Counter *_sessionsRejected = nullptr;
    obs::Counter *_authAccepted = nullptr;
    obs::Counter *_authRejected = nullptr;
    obs::Gauge *_workersConnected = nullptr;

    std::thread _acceptThread;
    std::thread _monitorThread;
    std::vector<std::thread> _connectionThreads;
};

} // namespace rigor::exec::net

#endif // RIGOR_EXEC_NET_CONTROLLER_HH
