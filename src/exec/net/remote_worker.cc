#include "exec/net/remote_worker.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "exec/fault_injection.hh"
#include "exec/net/auth.hh"
#include "exec/net/socket.hh"
#include "exec/net/wire.hh"

namespace rigor::exec::net
{

namespace
{

std::string
defaultWorkerName()
{
    char host[256] = "worker";
    (void)::gethostname(host, sizeof(host) - 1);
    host[sizeof(host) - 1] = '\0';
    return std::string(host) + ":" + std::to_string(::getpid());
}

/** One leased job pulled off the connection. */
struct Assignment
{
    std::uint64_t leaseId = 0;
    proc::JobRequest request;
};

/** State carried across reconnects of one runRemoteWorker call. */
struct ResumeState
{
    /** Assignments not yet executed when the connection broke; they
     *  still hold their leases and run under the resumed session. */
    std::deque<Assignment> assignments;
    /** Results computed but not delivered (connection died first);
     *  handed back as JobDone frames right after a resume. */
    std::vector<std::pair<std::uint64_t, proc::JobResult>> unsent;
    /** Pending reconnect-storm drill cycles. */
    unsigned stormRounds = 0;

    /** Lease ids still held: queued assignments plus unsent results. */
    std::vector<std::uint64_t> heldLeases() const
    {
        std::vector<std::uint64_t> held;
        for (const Assignment &assignment : assignments)
            held.push_back(assignment.leaseId);
        for (const auto &entry : unsent)
            held.push_back(entry.first);
        return held;
    }
};

/** Client side of the v2 handshake. */
struct ClientHandshake
{
    /** False = transport closed mid-handshake (retryable). */
    bool connected = false;
    bool accepted = false;
    bool resumed = false;
    std::string reason;
    HelloAck ack;
};

ClientHandshake
clientHandshake(int fd, const std::string &name,
                const std::string &sessionId, unsigned slots,
                const std::vector<std::uint64_t> &heldLeases,
                const std::string &authToken)
{
    ClientHandshake out;
    Hello hello;
    hello.slots =
        static_cast<std::uint16_t>(std::min(slots, 65535u));
    hello.name = name;
    hello.sessionId = sessionId;
    hello.heldLeases = heldLeases;
    proc::Writer hello_body;
    hello.serialize(hello_body);
    sendMessage(fd, MsgType::Hello, hello_body.bytes());

    std::vector<std::byte> payload;
    if (!recvMessage(fd, payload))
        return out;
    proc::Reader in(payload);
    if (readType(in) != MsgType::HelloAck)
        throw proc::ProtocolError(
            "expected hello-ack from the controller");
    out.ack = HelloAck::deserialize(in);
    out.connected = true;
    if (!out.ack.accepted) {
        out.reason = out.ack.reason;
        return out;
    }

    if (out.ack.authRequired) {
        // Empty token still answers (with a proof that cannot
        // verify): the controller's rejection is the clear error.
        AuthProofMsg proof;
        proof.proof =
            authProof(authToken, out.ack.challenge, sessionId, name);
        proc::Writer proof_body;
        proof.serialize(proof_body);
        sendMessage(fd, MsgType::AuthProof, proof_body.bytes());
    }

    std::vector<std::byte> verdict_payload;
    if (!recvMessage(fd, verdict_payload)) {
        out.connected = false;
        return out;
    }
    proc::Reader verdict_in(verdict_payload);
    if (readType(verdict_in) != MsgType::SessionAck)
        throw proc::ProtocolError(
            "expected session-ack from the controller");
    const SessionAck verdict = SessionAck::deserialize(verdict_in);
    out.accepted = verdict.accepted;
    out.resumed = verdict.resumed;
    out.reason = verdict.reason;
    return out;
}

/** Shared state of one worker connection. */
class Session
{
  public:
    Session(const RemoteWorkerOptions &options, OwnedFd fd,
            const HelloAck &ack, ResumeState *resume,
            std::string sessionId, std::string name)
        : _options(options), _fd(std::move(fd)), _resume(resume),
          _sessionId(std::move(sessionId)), _name(std::move(name)),
          _lease(std::chrono::milliseconds(ack.leaseMs)),
          _heartbeat(std::chrono::milliseconds(ack.heartbeatMs))
    {
        // Carried-over assignments still hold their leases: they run
        // first, on this connection.
        _assignments.swap(_resume->assignments);
        _heartbeatThread = std::thread(&Session::heartbeatLoop, this);
        const unsigned slots = std::max(1u, options.slots);
        _executors.reserve(slots);
        for (unsigned i = 0; i < slots; ++i)
            _executors.emplace_back(&Session::executorLoop, this);
    }

    ~Session()
    {
        stop();
        if (_heartbeatThread.joinable())
            _heartbeatThread.join();
        for (std::thread &executor : _executors)
            if (executor.joinable())
                executor.join();
        // Whatever never ran carries over to the next connection
        // (single-threaded now: every worker thread is joined).
        while (!_assignments.empty()) {
            _resume->assignments.push_back(
                std::move(_assignments.front()));
            _assignments.pop_front();
        }
    }

    /** Read frames until Shutdown / EOF; returns how it ended. */
    RemoteWorkerSession serve(bool resumedSession)
    {
        if (resumedSession)
            flushUnsent();
        RemoteWorkerSession outcome;
        try {
            for (;;) {
                std::vector<std::byte> payload;
                if (!recvMessage(_fd.get(), payload)) {
                    if (_drainClosed.load()) {
                        outcome.end = SessionEnd::Drained;
                        break;
                    }
                    outcome.end = SessionEnd::ConnectionLost;
                    outcome.error = _dropped.load()
                                        ? "drill dropped the connection"
                                        : "controller closed the "
                                          "connection";
                    break;
                }
                proc::Reader in(payload);
                const MsgType type = readType(in);
                if (type == MsgType::Shutdown) {
                    outcome.end = SessionEnd::Shutdown;
                    break;
                }
                if (type != MsgType::JobAssign)
                    throw proc::ProtocolError(
                        "unexpected " + net::toString(type) +
                        " from the controller");
                Assignment assignment;
                assignment.leaseId = in.pod<std::uint64_t>();
                assignment.request = proc::JobRequest::deserialize(in);
                {
                    const std::lock_guard<std::mutex> lock(_mutex);
                    _assignments.push_back(std::move(assignment));
                }
                // notify_all: the heartbeat thread shares this cv, so
                // a notify_one could wake it instead of an executor
                // and strand the assignment in the queue.
                _wake.notify_all();
            }
        } catch (const std::exception &e) {
            if (_drainClosed.load()) {
                outcome.end = SessionEnd::Drained;
            } else {
                outcome.end = SessionEnd::ConnectionLost;
                outcome.error = e.what();
            }
        }
        stop();
        outcome.jobsServed = _jobsServed.load();
        return outcome;
    }

  private:
    void stop()
    {
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            if (_stopping)
                return;
            _stopping = true;
        }
        _wake.notify_all();
    }

    /** Hand back results computed while disconnected. */
    void flushUnsent()
    {
        std::vector<std::pair<std::uint64_t, proc::JobResult>> unsent;
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            unsent.swap(_resume->unsent);
        }
        for (const auto &entry : unsent)
            sendResult(entry.first, entry.second);
    }

    void heartbeatLoop()
    {
        std::unique_lock<std::mutex> lock(_mutex);
        for (;;) {
            _wake.wait_for(lock, _heartbeat);
            if (_stopping)
                return;
            if (std::chrono::steady_clock::now() < _stallUntil)
                continue; // stall-heartbeat drill: stay silent
            const bool draining = _options.drainFlag != nullptr &&
                                  _options.drainFlag->load();
            const bool idle =
                _assignments.empty() && _active.load() == 0;
            lock.unlock();
            try {
                const std::lock_guard<std::mutex> write(_writeMutex);
                if (draining && !_drainSent) {
                    sendMessage(_fd.get(), MsgType::Drain);
                    _drainSent = true;
                }
                sendMessage(_fd.get(), MsgType::Heartbeat);
            } catch (const std::exception &) {
                // Connection gone; the reader loop notices too.
            }
            if (draining && _drainSent && idle) {
                // Every held cell is answered: close deliberately so
                // the reader loop reports a drained session.
                _drainClosed.store(true);
                shutdownSocket(_fd.get());
                lock.lock();
                return;
            }
            lock.lock();
        }
    }

    void executorLoop()
    {
        for (;;) {
            Assignment assignment;
            {
                std::unique_lock<std::mutex> lock(_mutex);
                _wake.wait(lock, [this] {
                    return _stopping || !_assignments.empty();
                });
                if (_stopping)
                    return;
                assignment = std::move(_assignments.front());
                _assignments.pop_front();
                _active.fetch_add(1);
            }
            runAssignment(assignment);
            _active.fetch_sub(1);
        }
    }

    void runAssignment(const Assignment &assignment)
    {
        // A net drill is acted out on this connection instead of
        // being classified: catch it on its way through the codec.
        std::optional<NetDrillFault> drill;
        const SimulateFn simulate = [this, &drill](
                                        const SimJob &job,
                                        const AttemptContext &ctx) {
            try {
                return _options.simulate
                           ? _options.simulate(job, ctx)
                           : SimulationEngine::simulateJob(job, ctx);
            } catch (const NetDrillFault &fault) {
                drill = fault;
                throw;
            }
        };
        proc::JobResult result = proc::runRequest(
            assignment.request, simulate, _options.hookFactory);
        if (drill) {
            if (!performDrill(*drill, assignment))
                return; // drill consumed the response frame
            result.status = proc::ResultStatus::Transient;
            result.message = std::string(drill->what()) +
                             " — stalled worker answered late";
        }
        sendResult(assignment.leaseId, result);
    }

    /** Park the job for the next (resumed) connection and slam this
     *  one shut: the drill half of a network partition. */
    void partitionNow(const Assignment &assignment,
                      unsigned stormRounds)
    {
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            _resume->assignments.push_back(assignment);
            _resume->stormRounds = stormRounds;
        }
        _dropped.store(true);
        shutdownSocket(_fd.get());
        stop();
    }

    /** Put the job back on the live queue (the one-shot drill will
     *  not refire; the rerun executes for real). */
    void requeueLive(const Assignment &assignment)
    {
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            _assignments.push_back(assignment);
        }
        _wake.notify_all();
    }

    /**
     * Probe the controller with a hostile second handshake — same
     * session id (split-brain probe) or a wrong token (auth probe).
     * The rejection is asserted controller-side via the
     * net.sessions.rejected / net.auth.rejected counters; whatever
     * happens, the probe must not harm the real session.
     */
    void rogueConnect(bool duplicateSession)
    {
        try {
            OwnedFd rogue = connectTcp(_options.host, _options.port);
            const std::string session = duplicateSession
                                            ? _sessionId
                                            : _sessionId + "/rogue";
            const std::string token = duplicateSession
                                          ? _options.authToken
                                          : "not-the-fleet-token";
            (void)clientHandshake(rogue.get(), _name + "/rogue",
                                  session, 1, {}, token);
        } catch (const std::exception &) {
            // The controller dropped the probe — the expected end.
        }
    }

    /**
     * Act out a network drill. Returns true when the caller should
     * still send a (late) JobDone, false when the drill consumed the
     * response frame (or the connection) itself.
     */
    bool performDrill(const NetDrillFault &drill,
                      const Assignment &assignment)
    {
        switch (drill.kind()) {
          case FaultKind::DropConnection:
            // Slam the connection mid-lease: the controller reclaims
            // every lease this worker held and requeues the cells.
            _dropped.store(true);
            shutdownSocket(_fd.get());
            stop();
            return false;
          case FaultKind::StallHeartbeat: {
            // Go silent past the lease so the controller reclaims and
            // reruns the cell elsewhere, then answer on the stale
            // lease — drilling late-result rejection end to end.
            const auto until = std::chrono::steady_clock::now() +
                               2 * _lease + _heartbeat;
            {
                const std::lock_guard<std::mutex> lock(_mutex);
                _stallUntil = until;
            }
            std::this_thread::sleep_until(until);
            return true;
          }
          case FaultKind::CorruptFrame: {
            // A length prefix promising more payload than follows:
            // the controller's bounds-checked reader classifies it as
            // a TruncatedFrame with the byte counts.
            const std::lock_guard<std::mutex> write(_writeMutex);
            const std::uint32_t claimed = 64;
            char torn[sizeof(claimed) + 8];
            std::memcpy(torn, &claimed, sizeof(claimed));
            std::memset(torn + sizeof(claimed), 0xab, 8);
            (void)!::send(_fd.get(), torn, sizeof(torn),
                          MSG_NOSIGNAL);
            shutdownSocket(_fd.get());
            stop();
            return false;
          }
          case FaultKind::Partition:
            // The job survives the partition: it rides ResumeState
            // into the reconnected session and completes under its
            // original lease — zero requeues if the controller's
            // grace window holds.
            partitionNow(assignment, 0);
            return false;
          case FaultKind::ReconnectStorm:
            // A partition followed by rapid connect/resume/hang-up
            // cycles (run by runRemoteWorker between sessions),
            // hammering the park/resume bookkeeping.
            partitionNow(assignment, 3);
            return false;
          case FaultKind::SlowLoris: {
            // A perfectly valid JobDone frame — delivered a few bytes
            // at a time, the way a congested or malicious peer would.
            // The controller's blocking reader must ride it out; the
            // Transient verdict makes the engine rerun the attempt.
            proc::JobResult result;
            result.status = proc::ResultStatus::Transient;
            result.message = std::string(drill.what()) +
                             " — frame trickled byte by byte";
            // The first pass measures the payload for the length
            // prefix of the second.
            const auto write_payload = [&](proc::Writer &out) {
                out.pod(MsgType::JobDone);
                out.pod(assignment.leaseId);
                result.serialize(out);
            };
            proc::Writer payload;
            write_payload(payload);
            proc::Writer writer;
            writer.pod(static_cast<std::uint32_t>(payload.bytes().size()));
            write_payload(writer);
            const std::vector<std::byte> &frame = writer.bytes();
            const std::lock_guard<std::mutex> write(_writeMutex);
            for (std::size_t at = 0; at < frame.size();) {
                const std::size_t chunk =
                    std::min<std::size_t>(7, frame.size() - at);
                const ssize_t wrote = ::send(
                    _fd.get(), frame.data() + at, chunk,
                    MSG_NOSIGNAL);
                if (wrote < 0) {
                    if (errno == EINTR)
                        continue;
                    break; // connection died; reader loop reports it
                }
                at += static_cast<std::size_t>(wrote);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
            _jobsServed.fetch_add(1);
            return false;
          }
          case FaultKind::DuplicateSession:
            rogueConnect(true);
            requeueLive(assignment);
            return false;
          case FaultKind::TokenMismatch:
            rogueConnect(false);
            requeueLive(assignment);
            return false;
          default:
            // Not a net kind (cannot happen: the injector only wraps
            // net kinds in NetDrillFault).
            return true;
        }
    }

    void sendResult(std::uint64_t leaseId,
                    const proc::JobResult &result)
    {
        proc::Writer body;
        body.pod(leaseId);
        result.serialize(body);
        try {
            const std::lock_guard<std::mutex> write(_writeMutex);
            sendMessage(_fd.get(), MsgType::JobDone, body.bytes());
            _jobsServed.fetch_add(1);
        } catch (const std::exception &) {
            // Connection died under us: keep the result for the
            // resumed session's handback (the reader loop reports
            // the loss).
            const std::lock_guard<std::mutex> lock(_mutex);
            _resume->unsent.emplace_back(leaseId, result);
        }
    }

    const RemoteWorkerOptions &_options;
    OwnedFd _fd;
    ResumeState *_resume;
    const std::string _sessionId;
    const std::string _name;
    const std::chrono::milliseconds _lease;
    const std::chrono::milliseconds _heartbeat;

    std::mutex _mutex;
    std::condition_variable _wake;
    bool _stopping = false;
    std::deque<Assignment> _assignments;
    std::chrono::steady_clock::time_point _stallUntil{};

    std::mutex _writeMutex;
    bool _drainSent = false;
    std::atomic<unsigned> _active{0};
    std::atomic<std::uint64_t> _jobsServed{0};
    std::atomic<bool> _dropped{false};
    std::atomic<bool> _drainClosed{false};

    std::thread _heartbeatThread;
    std::vector<std::thread> _executors;
};

} // namespace

std::string
toString(SessionEnd end)
{
    switch (end) {
      case SessionEnd::Shutdown:
        return "shutdown";
      case SessionEnd::ConnectionLost:
        return "connection-lost";
      case SessionEnd::Rejected:
        return "rejected";
      case SessionEnd::Drained:
        return "drained";
    }
    return "unknown";
}

RemoteWorkerSession
runRemoteWorker(const RemoteWorkerOptions &options)
{
    const std::string name =
        options.name.empty() ? defaultWorkerName() : options.name;
    const std::string session_id =
        options.sessionId.empty() ? name + "/" + randomNonce()
                                  : options.sessionId;
    const unsigned slots = options.slots == 0 ? 1u : options.slots;

    ResumeState resume;
    RemoteWorkerSession total;
    unsigned reconnects_left = options.reconnectAttempts;

    // Only the first connect throws: once a session existed, every
    // failure is reported in the session record instead.
    OwnedFd fd = connectTcp(options.host, options.port);

    for (;;) {
        RemoteWorkerSession outcome;
        try {
            const ClientHandshake shake = clientHandshake(
                fd.get(), name, session_id, slots, resume.heldLeases(),
                options.authToken);
            if (!shake.connected) {
                outcome.end = SessionEnd::ConnectionLost;
                outcome.error = "controller closed during handshake";
            } else if (!shake.accepted) {
                // A reconnect can race the controller noticing the
                // old connection's EOF: "already active" is the one
                // retryable rejection.
                const bool racing_old_self =
                    shake.reason.find("already active") !=
                        std::string::npos &&
                    reconnects_left > 0;
                if (!racing_old_self) {
                    total.end = SessionEnd::Rejected;
                    total.error = shake.reason;
                    return total;
                }
                outcome.end = SessionEnd::ConnectionLost;
                outcome.error = shake.reason;
            } else {
                if (shake.resumed) {
                    total.resumes += 1;
                } else {
                    // Not resumed: the controller requeued whatever
                    // we carried; those lease ids are dead.
                    resume.assignments.clear();
                    resume.unsent.clear();
                }
                Session session(options, std::move(fd), shake.ack,
                                &resume, session_id, name);
                outcome = session.serve(shake.resumed);
            }
        } catch (const std::exception &e) {
            outcome.end = SessionEnd::ConnectionLost;
            outcome.error = e.what();
        }
        total.jobsServed += outcome.jobsServed;
        total.end = outcome.end;
        total.error = outcome.error;
        if (outcome.end != SessionEnd::ConnectionLost)
            return total; // Shutdown or Drained: deliberate ends

        // Reconnect-storm drill: rapid connect/resume/hang-up cycles
        // before the real reconnect, hammering park/resume.
        while (resume.stormRounds > 0) {
            resume.stormRounds -= 1;
            try {
                OwnedFd storm =
                    connectTcp(options.host, options.port);
                (void)clientHandshake(storm.get(), name, session_id,
                                      slots, resume.heldLeases(),
                                      options.authToken);
                // Hang up immediately: the controller parks us again.
            } catch (const std::exception &) {
                break;
            }
        }

        if (reconnects_left == 0)
            return total;
        reconnects_left -= 1;
        std::this_thread::sleep_for(options.reconnectDelay);
        try {
            fd = connectTcp(options.host, options.port);
        } catch (const std::exception &e) {
            total.error = e.what();
            return total;
        }
    }
}

} // namespace rigor::exec::net
