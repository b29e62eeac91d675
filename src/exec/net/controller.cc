#include "exec/net/controller.hh"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "exec/net/auth.hh"
#include "exec/net/wire.hh"
#include "exec/proc/sandbox_worker.hh"

namespace rigor::exec::net
{

std::string
toString(LeaseEvent::Kind kind)
{
    switch (kind) {
      case LeaseEvent::Kind::WorkerJoined:
        return "worker-joined";
      case LeaseEvent::Kind::WorkerLost:
        return "worker-lost";
      case LeaseEvent::Kind::WorkerLapsed:
        return "worker-lapsed";
      case LeaseEvent::Kind::LeaseReclaimed:
        return "lease-reclaimed";
      case LeaseEvent::Kind::LateResult:
        return "late-result";
      case LeaseEvent::Kind::AuthRejected:
        return "auth-rejected";
      case LeaseEvent::Kind::SessionRejected:
        return "session-rejected";
      case LeaseEvent::Kind::SessionParked:
        return "session-parked";
      case LeaseEvent::Kind::SessionResumed:
        return "session-resumed";
      case LeaseEvent::Kind::SessionExpired:
        return "session-expired";
      case LeaseEvent::Kind::WorkerDraining:
        return "worker-draining";
    }
    return "unknown";
}

/** One queued/leased cell and the execute() call waiting on it. */
struct CampaignController::Pending
{
    /** Serialized proc::JobRequest (lease id prepended at grant). */
    std::vector<std::byte> request;
    std::string label;
    bool done = false;
    proc::JobResult result;
    /** Set instead of result on migration exhaustion / shutdown. */
    std::exception_ptr error;
    /** Name of the worker whose result was accepted. */
    std::string servedBy;
    /** Lease losses so far. */
    unsigned requeues = 0;
    /** Workers that ever held (and lost) this cell's lease. */
    std::set<std::string> triedWorkers;
};

/** One accepted fleet member. */
struct CampaignController::Worker
{
    int fd = -1;
    std::string name;
    /** Durable session identity; survives reconnects. */
    std::string sessionId;
    unsigned slots = 1;
    unsigned inFlight = 0;
    /** Silent past the lease: no new grants until a heartbeat. */
    bool lapsed = false;
    /** Connection finished; kept out of every decision. */
    bool gone = false;
    /** Announced a drain: no new grants, in-flight cells finish. */
    bool draining = false;
    std::chrono::steady_clock::time_point lastSeen;
    /** When the session was parked (meaningful while in _parked). */
    std::chrono::steady_clock::time_point parkedAt;
};

/** One outstanding grant. */
struct CampaignController::Lease
{
    std::shared_ptr<Pending> pending;
    std::shared_ptr<Worker> worker;
};

CampaignController::CampaignController(const ControllerOptions &options)
    : _options(options)
{
    if (_options.lease.count() <= 0)
        throw std::invalid_argument(
            "CampaignController: lease duration must be positive");
    if (_options.heartbeat.count() <= 0)
        throw std::invalid_argument(
            "CampaignController: heartbeat interval must be positive");
    setMetrics(nullptr);
    _listener = listenTcp(_options.bindAddress, _options.port);
    _port = boundPort(_listener.get());
    _acceptThread = std::thread(&CampaignController::acceptLoop, this);
    _monitorThread =
        std::thread(&CampaignController::monitorLoop, this);
}

CampaignController::~CampaignController()
{
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        _shutdown = true;
        // Parked sessions hold only dead fds; they are forgotten too.
        failCellsLocked("campaign controller shut down with cell '",
                        "' unfinished");
        for (const auto &worker : _workers) {
            try {
                sendMessage(worker->fd, MsgType::Shutdown);
            } catch (const std::exception &) {
                // Already-dead connection; the socket shutdown below
                // unblocks its reader thread either way.
            }
            shutdownSocket(worker->fd);
        }
        // A connection still mid-handshake is blocked in a read —
        // shut its socket so the thread can be joined below.
        for (const int handshake_fd : _handshakeFds)
            shutdownSocket(handshake_fd);
        _cv.notify_all();
    }
    // shutdown() (not close) wakes the blocked accept() without
    // racing fd reuse; the fd itself is closed after the join.
    shutdownSocket(_listener.get());
    if (_acceptThread.joinable())
        _acceptThread.join();
    if (_monitorThread.joinable())
        _monitorThread.join();
    std::vector<std::thread> connections;
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        connections.swap(_connectionThreads);
    }
    for (std::thread &thread : connections)
        if (thread.joinable())
            thread.join();
}

unsigned
CampaignController::connectedWorkers() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return static_cast<unsigned>(_workers.size());
}

bool
CampaignController::waitForWorkers(unsigned count,
                                   std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(_mutex);
    return _cv.wait_for(lock, timeout, [&] {
        return _shutdown || _workers.size() >= count;
    }) && !_shutdown;
}

void
CampaignController::setMetrics(obs::MetricsRegistry *metrics)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    obs::MetricsRegistry &registry =
        metrics != nullptr ? *metrics : _ownMetrics;
    _workersJoined = &registry.counter("net.workers.joined");
    _workersLost = &registry.counter("net.workers.lost");
    _leasesGranted = &registry.counter("net.leases.granted");
    _leasesReclaimed = &registry.counter("net.leases.reclaimed");
    _lateResults = &registry.counter("net.results.late");
    _sessionsParked = &registry.counter("net.sessions.parked");
    _sessionsResumed = &registry.counter("net.sessions.resumed");
    _sessionsExpired = &registry.counter("net.sessions.expired");
    _sessionsRejected = &registry.counter("net.sessions.rejected");
    _authAccepted = &registry.counter("net.auth.accepted");
    _authRejected = &registry.counter("net.auth.rejected");
    _workersConnected = &registry.gauge("net.workers.connected");
}

void
CampaignController::setLeaseObserver(LeaseObserver observer)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _observer = std::move(observer);
}

SimulateFn
CampaignController::simulateFn()
{
    return [this](const SimJob &job, const AttemptContext &ctx) {
        return execute(job, ctx);
    };
}

bool
CampaignController::draining() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _draining;
}

void
CampaignController::beginDrain(std::chrono::milliseconds waitInFlight)
{
    std::unique_lock<std::mutex> lock(_mutex);
    if (_draining || _shutdown)
        return;
    // Phase 1: stop granting. pumpLocked and execute() both gate on
    // _draining, so from here no new lease leaves the controller.
    _draining = true;
    _cv.notify_all();
    // Phase 2: let in-flight cells finish. The wait is bounded by
    // the caller's budget — a silent worker cannot stall the drain
    // past the lease clock, because the monitor reclaims its leases
    // (erasing them) on schedule.
    _cv.wait_for(lock, waitInFlight, [&] { return _leases.empty(); });
    // Phase 3: fail whatever remains so every blocked execute()
    // unwinds. The cells live on in the journal-resume path; parked
    // sessions have nothing left to resume into.
    failCellsLocked("controller draining: cell '",
                    "' left for the journal resume");
    _cv.notify_all();
}

CellResult
CampaignController::execute(const SimJob &job,
                            const AttemptContext &ctx)
{
    proc::Writer out;
    proc::makeRequest(job, ctx).serialize(out);

    auto pending = std::make_shared<Pending>();
    pending->request = out.bytes();
    pending->label = job.label;

    proc::JobResult result;
    std::string host;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        if (_shutdown)
            throw TransientFault(
                "campaign controller is shut down (job '" + job.label +
                "')");
        if (_draining)
            throw TransientFault(
                "controller draining: cell '" + job.label +
                "' left for the journal resume");
        _queue.push_back(pending);
        pumpLocked();
        _cv.wait(lock, [&] { return pending->done; });
        if (pending->error)
            std::rethrow_exception(pending->error);
        result = std::move(pending->result);
        host = std::move(pending->servedBy);
    }
    CellResult cell = proc::unwrapResult(result);
    cell.host = std::move(host);
    return cell;
}

void
CampaignController::acceptLoop()
{
    for (;;) {
        OwnedFd client = acceptClient(_listener.get());
        if (!client.valid())
            return; // listener shut down: controller winding down
        const std::lock_guard<std::mutex> lock(_mutex);
        if (_shutdown)
            return;
        _connectionThreads.emplace_back(
            &CampaignController::serveConnection, this,
            client.release());
    }
}

namespace
{

/** Send a SessionAck rejecting the handshake (best-effort). */
void
sendSessionReject(int fd, const std::string &reason)
{
    SessionAck nack;
    nack.accepted = false;
    nack.reason = reason;
    proc::Writer body;
    nack.serialize(body);
    try {
        sendMessage(fd, MsgType::SessionAck, body.bytes());
    } catch (const std::exception &) {
        // The peer is gone; it was being rejected anyway.
    }
}

} // namespace

std::shared_ptr<CampaignController::Worker>
CampaignController::performHandshake(OwnedFd &fd)
{
    std::vector<std::byte> payload;
    if (!recvMessage(fd.get(), payload)) {
        rejectHandshake("", "", "connection closed before hello");
        return nullptr;
    }
    proc::Reader in(payload);
    if (readType(in) != MsgType::Hello) {
        rejectHandshake("", "", "first message was not hello");
        return nullptr;
    }
    const Hello hello = Hello::deserialize(in);

    HelloAck ack;
    ack.leaseMs = static_cast<std::uint64_t>(_options.lease.count());
    ack.heartbeatMs =
        static_cast<std::uint64_t>(_options.heartbeat.count());
    if (hello.magic != kWireMagic)
        ack.reason = "bad protocol magic";
    else if (hello.version != kWireVersion)
        ack.reason = "unsupported protocol version " +
                     std::to_string(hello.version) +
                     " (controller speaks " +
                     std::to_string(kWireVersion) + ")";
    else if (hello.name.empty())
        ack.reason = "empty worker name";
    else if (hello.slots == 0)
        ack.reason = "zero worker slots";
    else if (hello.sessionId.empty())
        ack.reason = "empty session id";
    else
        ack.accepted = true;
    ack.authRequired =
        ack.accepted && !_options.authToken.empty();
    if (ack.authRequired)
        ack.challenge = randomNonce();
    proc::Writer ack_body;
    ack.serialize(ack_body);
    // A rejection is counted before the peer can read its verdict,
    // so a peer that saw the verdict also sees the count.
    if (!ack.accepted) {
        rejectHandshake(hello.name, hello.sessionId, ack.reason);
        sendMessage(fd.get(), MsgType::HelloAck, ack_body.bytes());
        return nullptr;
    }
    sendMessage(fd.get(), MsgType::HelloAck, ack_body.bytes());

    if (ack.authRequired) {
        std::vector<std::byte> proof_payload;
        if (!recvMessage(fd.get(), proof_payload)) {
            rejectHandshake(hello.name, hello.sessionId,
                            "connection closed before auth proof");
            return nullptr;
        }
        proc::Reader proof_in(proof_payload);
        if (readType(proof_in) != MsgType::AuthProof) {
            rejectHandshake(hello.name, hello.sessionId,
                            "auth proof required but not sent");
            sendSessionReject(fd.get(), "auth proof required");
            return nullptr;
        }
        const AuthProofMsg proof =
            AuthProofMsg::deserialize(proof_in);
        const std::string expected =
            authProof(_options.authToken, ack.challenge,
                      hello.sessionId, hello.name);
        if (!constantTimeEquals(proof.proof, expected)) {
            rejectHandshake(hello.name, hello.sessionId, "bad auth proof");
            sendSessionReject(fd.get(), "bad auth proof");
            return nullptr;
        }
    }

    // Registration: resume a parked session, or join fresh. The
    // verdict (SessionAck) is sent under the lock so no lease can
    // be granted to a half-registered worker.
    const std::lock_guard<std::mutex> lock(_mutex);
    if (_shutdown)
        return nullptr;
    for (const std::shared_ptr<Worker> &live : _workers) {
        if (live->gone || live->sessionId != hello.sessionId)
            continue;
        sendSessionReject(fd.get(), "session id already active");
        _sessionsRejected->add();
        LeaseEvent event;
        event.kind = LeaseEvent::Kind::SessionRejected;
        event.worker = hello.name;
        event.session = hello.sessionId;
        event.detail = "session id already active on worker '" +
                       live->name + "'";
        emitLocked(std::move(event));
        return nullptr;
    }

    std::shared_ptr<Worker> worker;
    bool resumed = false;
    std::uint32_t retained = 0;
    const auto parked_it = _parked.find(hello.sessionId);
    if (parked_it != _parked.end()) {
        // Lease handback: adopt the parked session onto this
        // connection. Leases the worker still remembers stay live;
        // the rest (e.g. eaten by a drill mid-partition) requeue.
        worker = parked_it->second;
        _parked.erase(parked_it);
        worker->fd = fd.get();
        worker->name = hello.name;
        worker->slots = hello.slots;
        worker->gone = false;
        worker->lapsed = false;
        worker->draining = false;
        worker->lastSeen = std::chrono::steady_clock::now();
        const std::unordered_set<std::uint64_t> held(
            hello.heldLeases.begin(), hello.heldLeases.end());
        for (auto it = _leases.begin(); it != _leases.end();) {
            if (it->second.worker != worker) {
                ++it;
                continue;
            }
            if (held.count(it->first) != 0) {
                ++it;
                retained += 1;
                continue;
            }
            it = reclaimLeaseLocked(it,
                                    "lease not held after reconnect");
        }
        worker->inFlight = retained;
        resumed = true;
        _sessionsResumed->add();
        _workers.push_back(worker);
        emitLocked(LeaseEvent::Kind::SessionResumed, *worker,
                   std::to_string(retained) + " lease(s) retained");
    } else {
        worker = std::make_shared<Worker>();
        worker->fd = fd.get();
        worker->name = hello.name;
        worker->sessionId = hello.sessionId;
        worker->slots = hello.slots;
        worker->lastSeen = std::chrono::steady_clock::now();
        _workers.push_back(worker);
        _workersJoined->add();
        emitLocked(LeaseEvent::Kind::WorkerJoined, *worker,
                   std::to_string(worker->slots) + " slot(s)");
    }
    if (ack.authRequired)
        _authAccepted->add();

    SessionAck verdict;
    verdict.accepted = true;
    verdict.resumed = resumed;
    verdict.retainedLeases = retained;
    proc::Writer verdict_body;
    verdict.serialize(verdict_body);
    sendMessage(fd.get(), MsgType::SessionAck,
                verdict_body.bytes());

    _workersConnected->set(static_cast<double>(_workers.size()));
    _cv.notify_all();
    pumpLocked();
    return worker;
}

void
CampaignController::serveConnection(int rawFd)
{
    OwnedFd fd(rawFd);
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        if (_shutdown)
            return;
        _handshakeFds.insert(fd.get());
    }
    std::shared_ptr<Worker> worker;
    std::string end_reason = "connection lost";
    try {
        worker = performHandshake(fd);
    } catch (const std::exception &e) {
        rejectHandshake("", "",
                        std::string("malformed handshake: ") + e.what());
    }
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        _handshakeFds.erase(fd.get());
    }
    if (worker == nullptr)
        return;
    try {
        for (;;) {
            std::vector<std::byte> message;
            if (!recvMessage(fd.get(), message))
                break; // clean EOF
            proc::Reader reader(message);
            const MsgType type = readType(reader);
            const std::lock_guard<std::mutex> lock(_mutex);
            if (_shutdown)
                return;
            worker->lastSeen = std::chrono::steady_clock::now();
            if (worker->lapsed) {
                worker->lapsed = false;
                pumpLocked();
            }
            switch (type) {
              case MsgType::Heartbeat:
                break;
              case MsgType::JobDone:
                handleJobDoneLocked(worker, reader);
                break;
              case MsgType::Drain:
                if (!worker->draining) {
                    worker->draining = true;
                    emitLocked(LeaseEvent::Kind::WorkerDraining, *worker,
                               "no further leases; " +
                                   std::to_string(worker->inFlight) +
                                   " cell(s) finishing");
                }
                break;
              default:
                throw proc::ProtocolError(
                    "unexpected " + net::toString(type) +
                    " from worker '" + worker->name + "'");
            }
        }
    } catch (const std::exception &e) {
        end_reason = e.what();
    }
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        workerGoneLocked(worker, end_reason);
    }
}

void
CampaignController::monitorLoop()
{
    const auto tick = std::max<std::chrono::milliseconds>(
        std::chrono::milliseconds(10),
        std::min(_options.heartbeat, _options.lease / 4));
    std::unique_lock<std::mutex> lock(_mutex);
    while (!_shutdown) {
        _cv.wait_for(lock, tick);
        if (_shutdown)
            return;
        const auto now = std::chrono::steady_clock::now();
        // Snapshot: reclaim mutates _workers bookkeeping.
        const std::vector<std::shared_ptr<Worker>> fleet = _workers;
        for (const std::shared_ptr<Worker> &worker : fleet) {
            if (worker->gone || worker->lapsed)
                continue;
            if (now - worker->lastSeen <= _options.lease)
                continue;
            worker->lapsed = true;
            emitLocked(LeaseEvent::Kind::WorkerLapsed, *worker,
                       "silent past the " +
                           std::to_string(_options.lease.count()) +
                           " ms lease");
            reclaimLeasesLocked(worker, "heartbeat lapse");
        }
        // Parked sessions past the grace window fall back to the
        // ordinary reclaim path: requeue the leases and report the
        // worker lost, exactly as if parking never happened.
        for (auto it = _parked.begin(); it != _parked.end();) {
            const std::shared_ptr<Worker> worker = it->second;
            if (now - worker->parkedAt <= _options.sessionGrace) {
                ++it;
                continue;
            }
            it = _parked.erase(it);
            _sessionsExpired->add();
            emitLocked(
                LeaseEvent::Kind::SessionExpired, *worker,
                "no reconnect within the " +
                    std::to_string(_options.sessionGrace.count()) +
                    " ms grace window");
            reclaimLeasesLocked(worker, "session grace expired");
            _workersLost->add();
            emitLocked(LeaseEvent::Kind::WorkerLost, *worker,
                       "session grace expired");
        }
        pumpLocked();
    }
}

void
CampaignController::pumpLocked()
{
    // A draining controller grants nothing: in-flight cells finish,
    // everything queued waits for the journal resume.
    if (_draining)
        return;
    for (;;) {
        if (_queue.empty())
            return;
        const std::shared_ptr<Pending> pending = _queue.front();
        // Prefer a worker this cell never failed on; fall back to a
        // tried one (the migration cap bounds the damage).
        std::shared_ptr<Worker> chosen;
        std::shared_ptr<Worker> fallback;
        for (const std::shared_ptr<Worker> &worker : _workers) {
            if (worker->gone || worker->lapsed || worker->draining ||
                worker->inFlight >= worker->slots)
                continue;
            if (pending->triedWorkers.count(worker->name) != 0) {
                if (fallback == nullptr)
                    fallback = worker;
                continue;
            }
            chosen = worker;
            break;
        }
        if (chosen == nullptr)
            chosen = fallback;
        if (chosen == nullptr)
            return; // no free worker: cells wait for the next pump
        _queue.pop_front();
        const std::uint64_t lease_id = _nextLeaseId++;
        std::vector<std::byte> body(sizeof(lease_id) +
                                    pending->request.size());
        std::memcpy(body.data(), &lease_id, sizeof(lease_id));
        std::memcpy(body.data() + sizeof(lease_id),
                    pending->request.data(),
                    pending->request.size());
        try {
            sendMessage(chosen->fd, MsgType::JobAssign, body);
        } catch (const std::exception &) {
            // Dead connection discovered at send time: requeue the
            // cell and retire the worker (reclaims its other leases).
            _queue.push_front(pending);
            workerGoneLocked(chosen, "job dispatch failed");
            continue;
        }
        chosen->inFlight += 1;
        _leases[lease_id] = Lease{pending, chosen};
        _leasesGranted->add();
    }
}

std::map<std::uint64_t, CampaignController::Lease>::iterator
CampaignController::reclaimLeaseLocked(
    std::map<std::uint64_t, Lease>::iterator it,
    const std::string &reason)
{
    const std::uint64_t lease_id = it->first;
    const std::shared_ptr<Worker> holder = it->second.worker;
    const std::shared_ptr<Pending> pending = it->second.pending;
    const auto next = _leases.erase(it);
    pending->requeues += 1;
    pending->triedWorkers.insert(holder->name);
    _leasesReclaimed->add();
    LeaseEvent event;
    event.kind = LeaseEvent::Kind::LeaseReclaimed;
    event.worker = holder->name;
    event.session = holder->sessionId;
    event.leaseId = lease_id;
    event.label = pending->label;
    event.detail = reason;
    event.requeues = pending->requeues;
    emitLocked(std::move(event));
    if (pending->triedWorkers.size() > _options.maxMigrations) {
        pending->error = std::make_exception_ptr(TransientFault(
            "cell '" + pending->label + "' lost its lease on " +
            std::to_string(pending->triedWorkers.size()) +
            " distinct workers (last: " + holder->name + ", " +
            reason + ")"));
        pending->done = true;
    } else {
        // Front of the queue: a migrated cell is the oldest work
        // in flight and should land on a healthy worker first.
        _queue.push_front(pending);
    }
    return next;
}

void
CampaignController::reclaimLeasesLocked(
    const std::shared_ptr<Worker> &worker, const std::string &reason)
{
    for (auto it = _leases.begin(); it != _leases.end();) {
        if (it->second.worker != worker) {
            ++it;
            continue;
        }
        it = reclaimLeaseLocked(it, reason);
    }
    worker->inFlight = 0;
    _cv.notify_all();
}

void
CampaignController::rejectHandshake(const std::string &name,
                                    const std::string &session,
                                    const std::string &reason)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    if (_shutdown)
        return; // quiet teardown: sockets are being torn down anyway
    _authRejected->add();
    LeaseEvent event;
    event.kind = LeaseEvent::Kind::AuthRejected;
    event.worker = name;
    event.session = session;
    event.detail = reason;
    emitLocked(std::move(event));
}

void
CampaignController::workerGoneLocked(
    const std::shared_ptr<Worker> &worker, const std::string &reason)
{
    if (worker->gone)
        return;
    worker->gone = true;
    if (_shutdown)
        return; // quiet teardown: every connection closes now
    _workers.erase(
        std::remove(_workers.begin(), _workers.end(), worker),
        _workers.end());
    const bool holds_leases = std::any_of(
        _leases.begin(), _leases.end(),
        [&](const auto &entry) { return entry.second.worker == worker; });
    if (holds_leases && !worker->lapsed && !worker->draining &&
        !_draining && _options.sessionGrace.count() > 0 &&
        !worker->sessionId.empty()) {
        // Park instead of reclaim: the connection broke but the
        // worker may still be computing. Its leases stay live for
        // the grace window so a reconnect with the same session id
        // can hand the results back with zero requeues. The lease
        // clock still rules: a worker silent past the lease lapses
        // (handled above the park check) and is reclaimed, so
        // parking never extends the failure-detection bound.
        worker->parkedAt = std::chrono::steady_clock::now();
        _parked[worker->sessionId] = worker;
        _sessionsParked->add();
        _workersConnected->set(static_cast<double>(_workers.size()));
        emitLocked(LeaseEvent::Kind::SessionParked, *worker,
                   reason + "; holding lease(s) for " +
                       std::to_string(_options.sessionGrace.count()) +
                       " ms");
        _cv.notify_all();
        pumpLocked();
        return;
    }
    reclaimLeasesLocked(worker, reason);
    _workersLost->add();
    _workersConnected->set(static_cast<double>(_workers.size()));
    emitLocked(LeaseEvent::Kind::WorkerLost, *worker, reason);
    _cv.notify_all();
    pumpLocked();
}

void
CampaignController::handleJobDoneLocked(
    const std::shared_ptr<Worker> &worker, proc::Reader &in)
{
    const auto lease_id = in.pod<std::uint64_t>();
    proc::JobResult result = proc::JobResult::deserialize(in);
    const auto it = _leases.find(lease_id);
    if (it == _leases.end()) {
        // The lease was reclaimed (and the cell likely rerun
        // elsewhere) before this result arrived: reject it so no
        // cell is ever recorded twice.
        _lateResults->add();
        emitLocked(LeaseEvent::Kind::LateResult, *worker,
                   "result on a reclaimed lease rejected", lease_id);
        return;
    }
    const std::shared_ptr<Pending> pending = it->second.pending;
    const std::shared_ptr<Worker> holder = it->second.worker;
    _leases.erase(it);
    if (holder->inFlight > 0)
        holder->inFlight -= 1;
    pending->result = std::move(result);
    pending->servedBy = worker->name;
    pending->done = true;
    _cv.notify_all();
    pumpLocked();
}

void
CampaignController::failCellsLocked(const std::string &before_label,
                                    const std::string &after_label)
{
    const auto fail = [&](const std::shared_ptr<Pending> &pending) {
        if (pending->done)
            return;
        pending->error = std::make_exception_ptr(
            TransientFault(before_label + pending->label + after_label));
        pending->done = true;
    };
    for (const auto &pending : _queue)
        fail(pending);
    for (const auto &entry : _leases)
        fail(entry.second.pending);
    _queue.clear();
    _leases.clear();
    _parked.clear();
}

void
CampaignController::emitLocked(LeaseEvent event)
{
    if (_observer)
        _observer(event);
}

void
CampaignController::emitLocked(LeaseEvent::Kind kind,
                               const Worker &worker, std::string detail,
                               std::uint64_t lease_id)
{
    LeaseEvent event;
    event.kind = kind;
    event.worker = worker.name;
    event.session = worker.sessionId;
    event.leaseId = lease_id;
    event.detail = std::move(detail);
    emitLocked(std::move(event));
}

} // namespace rigor::exec::net
