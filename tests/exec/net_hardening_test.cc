/**
 * Fleet hardening under unreliable networks: session parking and
 * lease handback across reconnects, grace-window expiry falling back
 * to reclaim, split-brain (duplicate session id) rejection, the
 * HMAC challenge-response handshake (accept, wrong token, replay),
 * a malformed-handshake fuzz table (truncated, oversized, bad tag,
 * wrong first message, instant EOF — none may wedge the controller
 * or leak a lease), controller drain, worker drain, and the
 * close-on-exec guarantee on every socket the net layer opens.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/fault_policy.hh"
#include "exec/net/auth.hh"
#include "exec/net/controller.hh"
#include "exec/net/remote_worker.hh"
#include "exec/net/socket.hh"
#include "exec/net/wire.hh"
#include "exec/proc/protocol.hh"
#include "trace/workloads.hh"

namespace net = rigor::exec::net;
namespace proc = rigor::exec::proc;
using rigor::exec::AttemptContext;
using rigor::exec::SimJob;
using rigor::exec::TransientFault;

namespace
{

double
stubResponse(const SimJob &, const AttemptContext &ctx)
{
    return 1000.0 + static_cast<double>(ctx.jobIndex);
}

bool
waitUntil(const std::function<bool()> &pred,
          std::chrono::milliseconds timeout =
              std::chrono::milliseconds(10000))
{
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

/** Thread-safe lease event log. */
class EventLog
{
  public:
    net::LeaseObserver observer()
    {
        return [this](const net::LeaseEvent &event) {
            const std::lock_guard<std::mutex> lock(_mutex);
            _events.push_back(event);
        };
    }

    std::vector<net::LeaseEvent> snapshot() const
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        return _events;
    }

    bool sawKind(net::LeaseEvent::Kind kind) const
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        for (const net::LeaseEvent &event : _events)
            if (event.kind == kind)
                return true;
        return false;
    }

  private:
    mutable std::mutex _mutex;
    std::vector<net::LeaseEvent> _events;
};

/** Scripted worker speaking the raw v2 wire protocol. */
class FakeWorker
{
  public:
    explicit FakeWorker(std::uint16_t port)
        : _fd(net::connectTcp("127.0.0.1", port))
    {
    }

    std::string token;
    std::vector<std::uint64_t> heldLeases;
    net::SessionAck session;

    net::HelloAck handshake(const std::string &name,
                            std::string sessionId = "",
                            std::uint16_t slots = 1)
    {
        if (sessionId.empty())
            sessionId = name + "/session";
        net::Hello hello;
        hello.slots = slots;
        hello.name = name;
        hello.sessionId = sessionId;
        hello.heldLeases = heldLeases;
        proc::Writer body;
        hello.serialize(body);
        net::sendMessage(_fd.get(), net::MsgType::Hello,
                         body.bytes());
        std::vector<std::byte> payload;
        EXPECT_TRUE(net::recvMessage(_fd.get(), payload));
        proc::Reader in(payload);
        EXPECT_EQ(net::readType(in), net::MsgType::HelloAck);
        net::HelloAck ack = net::HelloAck::deserialize(in);
        if (!ack.accepted)
            return ack;
        if (ack.authRequired) {
            net::AuthProofMsg proof;
            proof.proof = net::authProof(token, ack.challenge,
                                         sessionId, name);
            proc::Writer proof_body;
            proof.serialize(proof_body);
            net::sendMessage(_fd.get(), net::MsgType::AuthProof,
                             proof_body.bytes());
        }
        std::vector<std::byte> verdict_payload;
        if (!net::recvMessage(_fd.get(), verdict_payload)) {
            ack.accepted = false;
            ack.reason = "connection closed before session ack";
            return ack;
        }
        proc::Reader verdict_in(verdict_payload);
        EXPECT_EQ(net::readType(verdict_in),
                  net::MsgType::SessionAck);
        session = net::SessionAck::deserialize(verdict_in);
        ack.accepted = session.accepted;
        if (!session.accepted)
            ack.reason = session.reason;
        return ack;
    }

    bool readAssign(std::uint64_t &leaseId, proc::JobRequest &request)
    {
        std::vector<std::byte> payload;
        if (!net::recvMessage(_fd.get(), payload))
            return false;
        proc::Reader in(payload);
        if (net::readType(in) != net::MsgType::JobAssign)
            return false;
        leaseId = in.pod<std::uint64_t>();
        request = proc::JobRequest::deserialize(in);
        return true;
    }

    void sendDone(std::uint64_t leaseId, double cycles)
    {
        proc::JobResult result;
        result.status = proc::ResultStatus::Ok;
        result.cycles = cycles;
        proc::Writer body;
        body.pod(leaseId);
        result.serialize(body);
        net::sendMessage(_fd.get(), net::MsgType::JobDone,
                         body.bytes());
    }

    void disconnect() { _fd.reset(); }

    int fd() const { return _fd.get(); }

  private:
    net::OwnedFd _fd;
};

SimJob
makeJob(const rigor::trace::WorkloadProfile &profile,
        const std::string &label)
{
    SimJob job;
    job.workload = &profile;
    job.instructions = 1000;
    job.label = label;
    return job;
}

std::future<double>
executeAsync(net::CampaignController &controller, const SimJob &job,
             std::size_t jobIndex)
{
    return std::async(std::launch::async,
                      [&controller, &job, jobIndex] {
                          AttemptContext ctx;
                          ctx.jobIndex = jobIndex;
                          return controller.execute(job, ctx).cycles;
                      });
}

} // namespace

// ----- Session resume: park, handback, expiry, split-brain -----

TEST(NetSession, DisconnectParksAndReconnectHandsTheLeaseBack)
{
    net::ControllerOptions options;
    options.sessionGrace = std::chrono::milliseconds(5000);
    EventLog events;
    net::CampaignController controller(options);
    controller.setLeaseObserver(events.observer());

    auto ghost = std::make_unique<FakeWorker>(controller.port());
    ASSERT_TRUE(ghost->handshake("ghost", "ghost/s1").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "partitioned cell");
    std::future<double> result = executeAsync(controller, job, 7);

    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(ghost->readAssign(lease, assigned));

    // The connection breaks mid-lease: the session must park, and
    // nothing may be requeued while the grace clock runs.
    ghost->disconnect();
    ASSERT_TRUE(
        waitUntil([&] { return controller.sessionsParked() == 1; }));
    EXPECT_EQ(controller.leasesReclaimed(), 0u);
    EXPECT_EQ(controller.connectedWorkers(), 0u);

    // Reconnect with the same session id, still holding the lease:
    // the result computed during the partition hands back on the new
    // connection under the original lease id.
    FakeWorker revenant(controller.port());
    revenant.heldLeases = {lease};
    const net::HelloAck ack =
        revenant.handshake("ghost", "ghost/s1");
    ASSERT_TRUE(ack.accepted) << ack.reason;
    EXPECT_TRUE(revenant.session.resumed);
    EXPECT_EQ(revenant.session.retainedLeases, 1u);
    revenant.sendDone(lease, 4321.0);

    EXPECT_EQ(result.get(), 4321.0);
    EXPECT_EQ(controller.leasesReclaimed(), 0u);
    EXPECT_EQ(controller.sessionsResumed(), 1u);
    EXPECT_EQ(controller.lateResults(), 0u);
    EXPECT_TRUE(
        events.sawKind(net::LeaseEvent::Kind::SessionParked));
    EXPECT_TRUE(
        events.sawKind(net::LeaseEvent::Kind::SessionResumed));
}

TEST(NetSession, ResumeRequeuesLeasesTheWorkerNoLongerHolds)
{
    net::ControllerOptions options;
    options.sessionGrace = std::chrono::milliseconds(5000);
    net::CampaignController controller(options);

    auto amnesiac = std::make_unique<FakeWorker>(controller.port());
    ASSERT_TRUE(amnesiac->handshake("amnesiac", "amn/s1").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "forgotten cell");
    std::future<double> result = executeAsync(controller, job, 2);

    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(amnesiac->readAssign(lease, assigned));
    amnesiac->disconnect();
    ASSERT_TRUE(
        waitUntil([&] { return controller.sessionsParked() == 1; }));

    // Resume declaring no held leases: the parked lease must requeue
    // (reclaim path) and land back on this same worker.
    FakeWorker back(controller.port());
    const net::HelloAck ack = back.handshake("amnesiac", "amn/s1");
    ASSERT_TRUE(ack.accepted) << ack.reason;
    EXPECT_TRUE(back.session.resumed);
    EXPECT_EQ(back.session.retainedLeases, 0u);
    EXPECT_EQ(controller.leasesReclaimed(), 1u);

    std::uint64_t release = 0;
    ASSERT_TRUE(back.readAssign(release, assigned));
    EXPECT_NE(release, lease);
    back.sendDone(release, 2222.0);
    EXPECT_EQ(result.get(), 2222.0);
}

TEST(NetSession, GraceExpiryFallsBackToReclaimAndMigration)
{
    net::ControllerOptions options;
    options.sessionGrace = std::chrono::milliseconds(100);
    options.heartbeat = std::chrono::milliseconds(25);
    EventLog events;
    auto controller =
        std::make_unique<net::CampaignController>(options);
    controller->setLeaseObserver(events.observer());

    auto doomed = std::make_unique<FakeWorker>(controller->port());
    ASSERT_TRUE(doomed->handshake("doomed", "doom/s1").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "expired cell");
    std::future<double> result = executeAsync(*controller, job, 5);

    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(doomed->readAssign(lease, assigned));
    doomed->disconnect();

    // No reconnect inside the grace window: the session expires and
    // the cell migrates to a healthy worker.
    std::thread rescuer([port = controller->port()] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "rescuer";
        opts.simulate = stubResponse;
        (void)net::runRemoteWorker(opts);
    });

    EXPECT_EQ(result.get(), 1005.0);
    EXPECT_EQ(controller->sessionsParked(), 1u);
    EXPECT_EQ(controller->sessionsExpired(), 1u);
    EXPECT_GE(controller->leasesReclaimed(), 1u);
    EXPECT_TRUE(
        events.sawKind(net::LeaseEvent::Kind::SessionExpired));
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::WorkerLost));

    controller.reset();
    rescuer.join();
}

TEST(NetSession, DuplicateLiveSessionIdIsRejected)
{
    net::CampaignController controller;

    FakeWorker original(controller.port());
    ASSERT_TRUE(original.handshake("orig", "shared/id").accepted);

    FakeWorker impostor(controller.port());
    const net::HelloAck ack =
        impostor.handshake("impostor", "shared/id");
    EXPECT_FALSE(ack.accepted);
    EXPECT_NE(ack.reason.find("already active"), std::string::npos)
        << ack.reason;
    EXPECT_EQ(controller.sessionsRejected(), 1u);
    EXPECT_EQ(controller.connectedWorkers(), 1u);
}

// ----- Authenticated handshake -----

TEST(NetAuthHandshake, SharedTokenAdmitsAndWrongTokenNeverGetsALease)
{
    net::ControllerOptions options;
    options.authToken = "fleet-secret";
    EventLog events;
    net::CampaignController controller(options);
    controller.setLeaseObserver(events.observer());

    // Queue a cell before anyone connects: the first admitted worker
    // gets it, so a rogue being admitted would be observable.
    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "guarded cell");
    std::future<double> result = executeAsync(controller, job, 9);

    FakeWorker rogue(controller.port());
    rogue.token = "not-the-fleet-token";
    const net::HelloAck rogue_ack = rogue.handshake("rogue");
    EXPECT_FALSE(rogue_ack.accepted);
    EXPECT_NE(rogue_ack.reason.find("auth"), std::string::npos)
        << rogue_ack.reason;
    EXPECT_EQ(controller.connectedWorkers(), 0u);
    EXPECT_EQ(controller.authRejected(), 1u);
    EXPECT_EQ(controller.leasesGranted(), 0u);
    EXPECT_TRUE(
        events.sawKind(net::LeaseEvent::Kind::AuthRejected));

    FakeWorker member(controller.port());
    member.token = "fleet-secret";
    ASSERT_TRUE(member.handshake("member").accepted);
    EXPECT_EQ(controller.authAccepted(), 1u);

    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(member.readAssign(lease, assigned));
    member.sendDone(lease, 9999.0);
    EXPECT_EQ(result.get(), 9999.0);
}

TEST(NetAuthHandshake, ReplayedProofFailsTheFreshChallenge)
{
    net::ControllerOptions options;
    options.authToken = "fleet-secret";
    net::CampaignController controller(options);

    // Capture a valid proof for connection 1's challenge...
    std::string stale_proof;
    {
        net::OwnedFd fd =
            net::connectTcp("127.0.0.1", controller.port());
        net::Hello hello;
        hello.name = "eavesdropper";
        hello.sessionId = "eaves/s1";
        proc::Writer body;
        hello.serialize(body);
        net::sendMessage(fd.get(), net::MsgType::Hello,
                         body.bytes());
        std::vector<std::byte> payload;
        ASSERT_TRUE(net::recvMessage(fd.get(), payload));
        proc::Reader in(payload);
        ASSERT_EQ(net::readType(in), net::MsgType::HelloAck);
        const net::HelloAck ack = net::HelloAck::deserialize(in);
        ASSERT_TRUE(ack.authRequired);
        stale_proof = net::authProof("fleet-secret", ack.challenge,
                                     "eaves/s1", "eavesdropper");
        // ...then abandon the connection without answering.
    }

    // ...and replay it on connection 2: the nonce is fresh, so the
    // stale proof must be rejected.
    net::OwnedFd fd =
        net::connectTcp("127.0.0.1", controller.port());
    net::Hello hello;
    hello.name = "eavesdropper";
    hello.sessionId = "eaves/s1";
    proc::Writer body;
    hello.serialize(body);
    net::sendMessage(fd.get(), net::MsgType::Hello, body.bytes());
    std::vector<std::byte> payload;
    ASSERT_TRUE(net::recvMessage(fd.get(), payload));
    proc::Reader in(payload);
    ASSERT_EQ(net::readType(in), net::MsgType::HelloAck);
    ASSERT_TRUE(net::HelloAck::deserialize(in).accepted);
    net::AuthProofMsg proof;
    proof.proof = stale_proof;
    proc::Writer proof_body;
    proof.serialize(proof_body);
    net::sendMessage(fd.get(), net::MsgType::AuthProof,
                     proof_body.bytes());
    std::vector<std::byte> verdict_payload;
    ASSERT_TRUE(net::recvMessage(fd.get(), verdict_payload));
    proc::Reader verdict_in(verdict_payload);
    ASSERT_EQ(net::readType(verdict_in), net::MsgType::SessionAck);
    const net::SessionAck verdict =
        net::SessionAck::deserialize(verdict_in);
    EXPECT_FALSE(verdict.accepted);
    EXPECT_NE(verdict.reason.find("bad auth proof"),
              std::string::npos)
        << verdict.reason;
    EXPECT_GE(controller.authRejected(), 1u);
    EXPECT_EQ(controller.connectedWorkers(), 0u);
}

// ----- Malformed-handshake fuzz -----

namespace
{

/** Write raw bytes on a fresh connection, then close. */
void
rawProbe(std::uint16_t port, const void *data, std::size_t size)
{
    net::OwnedFd fd = net::connectTcp("127.0.0.1", port);
    if (size > 0) {
        ASSERT_EQ(::write(fd.get(), data, size),
                  static_cast<ssize_t>(size));
    }
}

} // namespace

TEST(NetFuzz, MalformedHandshakesAreCountedDroppedAndHarmless)
{
    net::ControllerOptions options;
    options.authToken = "fleet-secret";
    net::CampaignController controller(options);
    const std::uint16_t port = controller.port();
    std::uint64_t expected_rejects = 0;

    // Instant EOF: connect and say nothing.
    rawProbe(port, nullptr, 0);
    expected_rejects += 1;

    // Truncated length prefix.
    const std::uint8_t half_prefix[2] = {0x10, 0x00};
    rawProbe(port, half_prefix, sizeof(half_prefix));
    expected_rejects += 1;

    // Truncated payload: the prefix promises 64 bytes, 3 arrive.
    const std::uint32_t promised = 64;
    std::vector<std::uint8_t> torn(sizeof(promised) + 3, 0xab);
    std::memcpy(torn.data(), &promised, sizeof(promised));
    rawProbe(port, torn.data(), torn.size());
    expected_rejects += 1;

    // Oversized frame: a length prefix past the 64 MiB cap.
    const std::uint32_t oversized = 0x7fffffff;
    rawProbe(port, &oversized, sizeof(oversized));
    expected_rejects += 1;

    // Unknown message tag (a 1-byte frame tagged 99).
    const std::uint8_t bad_tag[5] = {0x01, 0x00, 0x00, 0x00, 99};
    rawProbe(port, bad_tag, sizeof(bad_tag));
    expected_rejects += 1;

    // Valid frame, wrong opening message (Heartbeat before Hello).
    {
        net::OwnedFd fd = net::connectTcp("127.0.0.1", port);
        net::sendMessage(fd.get(), net::MsgType::Heartbeat);
    }
    expected_rejects += 1;

    // Structurally valid Hellos that fail validation.
    {
        FakeWorker bad_magic(port);
        net::Hello hello;
        hello.magic = 0xdeadbeef;
        hello.name = "m";
        hello.sessionId = "m/s";
        proc::Writer body;
        hello.serialize(body);
        net::sendMessage(bad_magic.fd(), net::MsgType::Hello,
                         body.bytes());
    }
    expected_rejects += 1;
    {
        FakeWorker old_version(port);
        net::Hello hello;
        hello.version = 1;
        hello.name = "v";
        hello.sessionId = "v/s";
        proc::Writer body;
        hello.serialize(body);
        net::sendMessage(old_version.fd(), net::MsgType::Hello,
                         body.bytes());
    }
    expected_rejects += 1;
    {
        FakeWorker nameless(port);
        const net::HelloAck ack = nameless.handshake("");
        EXPECT_FALSE(ack.accepted);
    }
    expected_rejects += 1;
    {
        FakeWorker no_session(port);
        net::Hello hello;
        hello.name = "n";
        proc::Writer body; // sessionId left empty
        hello.serialize(body);
        net::sendMessage(no_session.fd(), net::MsgType::Hello,
                         body.bytes());
    }
    expected_rejects += 1;
    {
        FakeWorker zero_slots(port);
        const net::HelloAck ack =
            zero_slots.handshake("z", "z/s", 0);
        EXPECT_FALSE(ack.accepted);
    }
    expected_rejects += 1;

    // Hello accepted, then garbage instead of the demanded proof.
    {
        FakeWorker mute(port);
        net::Hello hello;
        hello.name = "mute";
        hello.sessionId = "mute/s";
        proc::Writer body;
        hello.serialize(body);
        net::sendMessage(mute.fd(), net::MsgType::Hello,
                         body.bytes());
        std::vector<std::byte> payload;
        ASSERT_TRUE(net::recvMessage(mute.fd(), payload));
        net::sendMessage(mute.fd(), net::MsgType::Heartbeat);
    }
    expected_rejects += 1;

    // Every probe must be counted, none may register a worker, and
    // the controller must still serve a well-behaved fleet member.
    ASSERT_TRUE(waitUntil([&] {
        return controller.authRejected() >= expected_rejects;
    })) << controller.authRejected()
        << " of " << expected_rejects;
    EXPECT_EQ(controller.authRejected(), expected_rejects);
    EXPECT_EQ(controller.connectedWorkers(), 0u);
    EXPECT_EQ(controller.leasesGranted(), 0u);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "survivor cell");
    std::future<double> result = executeAsync(controller, job, 1);
    FakeWorker member(port);
    member.token = "fleet-secret";
    ASSERT_TRUE(member.handshake("member").accepted);
    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(member.readAssign(lease, assigned));
    member.sendDone(lease, 1234.0);
    EXPECT_EQ(result.get(), 1234.0);
}

// ----- Graceful drain -----

TEST(NetDrain, BeginDrainFinishesInFlightAndFailsQueuedCells)
{
    net::CampaignController controller;

    FakeWorker worker(controller.port());
    ASSERT_TRUE(worker.handshake("steady").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob in_flight_job = makeJob(profile, "in-flight cell");
    const SimJob queued_job = makeJob(profile, "queued cell");
    std::future<double> in_flight =
        executeAsync(controller, in_flight_job, 1);

    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(worker.readAssign(lease, assigned));

    // One slot held: the second cell queues behind it.
    std::future<double> queued =
        executeAsync(controller, queued_job, 2);

    std::thread drainer([&controller] {
        controller.beginDrain(std::chrono::milliseconds(5000));
    });
    ASSERT_TRUE(waitUntil([&] { return controller.draining(); }));

    // The in-flight cell finishes normally under the drain...
    worker.sendDone(lease, 7777.0);
    EXPECT_EQ(in_flight.get(), 7777.0);

    // ...and the queued cell is failed back resumably, not run.
    try {
        queued.get();
        FAIL() << "queued cell must fail under drain";
    } catch (const TransientFault &e) {
        EXPECT_NE(std::string(e.what()).find("draining"),
                  std::string::npos)
            << e.what();
    }
    drainer.join();
    EXPECT_TRUE(controller.draining());
    EXPECT_EQ(controller.leasesReclaimed(), 0u);
}

TEST(NetDrain, WorkerDrainFlagAnnouncesFinishesAndEndsDrained)
{
    EventLog events;
    auto controller = std::make_unique<net::CampaignController>();
    controller->setLeaseObserver(events.observer());

    std::atomic<bool> drain{false};
    net::RemoteWorkerSession session;
    std::thread worker([&, port = controller->port()] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "drainer";
        opts.simulate = stubResponse;
        opts.drainFlag = &drain;
        session = net::runRemoteWorker(opts);
    });
    ASSERT_TRUE(controller->waitForWorkers(
        1, std::chrono::milliseconds(10000)));

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "pre-drain cell");
    EXPECT_EQ(executeAsync(*controller, job, 3).get(), 1003.0);

    drain.store(true);
    worker.join();
    EXPECT_EQ(session.end, net::SessionEnd::Drained);
    EXPECT_EQ(session.jobsServed, 1u);
    // An idle worker closes right after sending Drain, so the
    // controller's reader may still be handling the frame here.
    EXPECT_TRUE(waitUntil([&] {
        return events.sawKind(net::LeaseEvent::Kind::WorkerDraining);
    }));
    EXPECT_TRUE(waitUntil(
        [&] { return controller->connectedWorkers() == 0; }));
    // A drained worker's exit is deliberate: nothing to reclaim.
    EXPECT_EQ(controller->leasesReclaimed(), 0u);
    EXPECT_EQ(controller->sessionsParked(), 0u);
    controller.reset();
}

// ----- Socket hygiene (close-on-exec) -----

TEST(NetSocket, EverySocketIsOpenedCloseOnExec)
{
    net::OwnedFd listener = net::listenTcp("127.0.0.1", 0);
    const std::uint16_t port = net::boundPort(listener.get());

    net::OwnedFd client;
    std::thread connector([&client, port] {
        client = net::connectTcp("127.0.0.1", port);
    });
    net::OwnedFd accepted = net::acceptClient(listener.get());
    connector.join();

    ASSERT_TRUE(listener.valid());
    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(accepted.valid());
    for (const int fd : {listener.get(), client.get(),
                         accepted.get()}) {
        const int flags = ::fcntl(fd, F_GETFD);
        ASSERT_GE(flags, 0);
        EXPECT_NE(flags & FD_CLOEXEC, 0)
            << "fd " << fd << " would leak into forked sandboxes";
    }
}

TEST(NetSocket, BothEndsDisableNagle)
{
    // Nagle on either end holds a small frame back until the peer's
    // delayed ACK, adding tens of milliseconds to every round trip.
    net::OwnedFd listener = net::listenTcp("127.0.0.1", 0);
    const std::uint16_t port = net::boundPort(listener.get());

    net::OwnedFd client;
    std::thread connector([&client, port] {
        client = net::connectTcp("127.0.0.1", port);
    });
    net::OwnedFd accepted = net::acceptClient(listener.get());
    connector.join();

    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(accepted.valid());
    for (const int fd : {client.get(), accepted.get()}) {
        int on = 0;
        socklen_t size = sizeof(on);
        ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on,
                               &size),
                  0);
        EXPECT_NE(on, 0) << "fd " << fd << " still runs Nagle";
    }
}
