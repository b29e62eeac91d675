#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/fault_injection.hh"
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

/** Deterministic stand-in for the simulator. */
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

/**
 * A scripted worker speaking the raw wire protocol, for driving the
 * controller into exact fault scenarios (silence, abrupt close, late
 * results) that a well-behaved runRemoteWorker never produces.
 */
class FakeWorker
{
  public:
    explicit FakeWorker(std::uint16_t port)
        : _fd(net::connectTcp("127.0.0.1", port))
    {
    }

    /** Answers the controller's HMAC challenge when non-empty. */
    std::string token;
    /** Lease ids declared in the next Hello (session resume). */
    std::vector<std::uint64_t> heldLeases;
    /** Verdict of the last handshake that got past HelloAck. */
    net::SessionAck session;

    /**
     * Full v2 handshake: Hello -> HelloAck -> [AuthProof] ->
     * SessionAck. The returned HelloAck's accepted/reason reflect
     * the final verdict so callers can assert on one object.
     */
    net::HelloAck handshake(const std::string &name,
                            std::uint16_t slots = 1,
                            std::uint32_t magic = net::kWireMagic,
                            std::uint16_t version = net::kWireVersion,
                            std::string sessionId = "")
    {
        if (sessionId.empty())
            sessionId = name + "/session";
        net::Hello hello;
        hello.magic = magic;
        hello.version = version;
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

    /** Block until the controller assigns a job. */
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

    void heartbeat()
    {
        net::sendMessage(_fd.get(), net::MsgType::Heartbeat);
    }

    void disconnect() { _fd.reset(); }

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

/** Launch execute() off-thread (it blocks until a worker answers). */
std::future<double>
executeAsync(net::CampaignController &controller, const SimJob &job,
             std::size_t jobIndex)
{
    return std::async(std::launch::async, [&controller, &job,
                                           jobIndex] {
        AttemptContext ctx;
        ctx.jobIndex = jobIndex;
        return controller.execute(job, ctx).cycles;
    });
}

} // namespace

TEST(NetController, HandshakeRejectsBadMagicAndEmptyName)
{
    net::CampaignController controller;
    ASSERT_NE(controller.port(), 0u);

    FakeWorker wrong_magic(controller.port());
    const net::HelloAck magic_ack =
        wrong_magic.handshake("w", 1, 0xdeadbeef);
    EXPECT_FALSE(magic_ack.accepted);
    EXPECT_NE(magic_ack.reason.find("magic"), std::string::npos);

    FakeWorker nameless(controller.port());
    const net::HelloAck name_ack = nameless.handshake("");
    EXPECT_FALSE(name_ack.accepted);
    EXPECT_NE(name_ack.reason.find("name"), std::string::npos);

    FakeWorker future_version(controller.port());
    const net::HelloAck version_ack = future_version.handshake(
        "w", 1, net::kWireMagic, net::kWireVersion + 1);
    EXPECT_FALSE(version_ack.accepted);
    EXPECT_NE(version_ack.reason.find("version"), std::string::npos);

    EXPECT_EQ(controller.connectedWorkers(), 0u);
}

TEST(NetController, HandshakeRejectsAVersionTwoWorker)
{
    // A version-2 worker memcpys a ProcessorConfig of the older
    // layout (with cache replacement fields); it must be turned away
    // at the handshake, not fed jobs it would misread.
    net::CampaignController controller;
    FakeWorker old_worker(controller.port());
    const net::HelloAck ack =
        old_worker.handshake("w", 1, net::kWireMagic, 2);
    EXPECT_FALSE(ack.accepted);
    EXPECT_NE(ack.reason.find("unsupported protocol version 2"),
              std::string::npos)
        << ack.reason;
    EXPECT_EQ(controller.connectedWorkers(), 0u);
}

TEST(NetController, WaitForWorkersTimesOutWithoutAFleet)
{
    net::CampaignController controller;
    EXPECT_FALSE(controller.waitForWorkers(
        1, std::chrono::milliseconds(50)));
}

TEST(NetController, ExecutesJobsAcrossARealWorkerFleet)
{
    auto controller = std::make_unique<net::CampaignController>();
    const std::uint16_t port = controller->port();

    auto serve = [port](const std::string &name) {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = name;
        opts.simulate = stubResponse;
        const net::RemoteWorkerSession session =
            net::runRemoteWorker(opts);
        EXPECT_EQ(session.end, net::SessionEnd::Shutdown);
    };
    std::thread w1(serve, "w1");
    std::thread w2(serve, "w2");
    ASSERT_TRUE(controller->waitForWorkers(
        2, std::chrono::milliseconds(10000)));

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "fleet cell");
    std::vector<std::future<double>> results;
    for (std::size_t i = 0; i < 8; ++i)
        results.push_back(executeAsync(*controller, job, i));
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].get(), 1000.0 + static_cast<double>(i));

    // Provenance: the serving worker's name comes back as the host.
    AttemptContext ctx;
    ctx.jobIndex = 99;
    const rigor::exec::CellResult served = controller->execute(job, ctx);
    EXPECT_EQ(served.cycles, 1099.0);
    EXPECT_TRUE(served.host == "w1" || served.host == "w2")
        << served.host;

    EXPECT_EQ(controller->leasesGranted(), 9u);
    EXPECT_EQ(controller->leasesReclaimed(), 0u);

    controller.reset(); // sends Shutdown to the fleet
    w1.join();
    w2.join();
}

TEST(NetController, SilentWorkerLapsesAndCellMigratesThenLateResultIsDropped)
{
    net::ControllerOptions options;
    options.lease = std::chrono::milliseconds(300);
    options.heartbeat = std::chrono::milliseconds(50);
    EventLog events;
    auto controller =
        std::make_unique<net::CampaignController>(options);
    controller->setLeaseObserver(events.observer());

    // The silent worker handshakes and takes the cell, then never
    // heartbeats: its lease must lapse and the cell must requeue.
    FakeWorker silent(controller->port());
    ASSERT_TRUE(silent.handshake("silent").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "migrating cell");
    std::future<double> result = executeAsync(*controller, job, 3);

    std::uint64_t stale_lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(silent.readAssign(stale_lease, assigned));
    EXPECT_EQ(assigned.label, "migrating cell");

    // A healthy worker joins; once the lease lapses, the cell lands
    // on it — the engine's attempt never notices the migration.
    std::thread healthy([port = controller->port()] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "healthy";
        opts.simulate = stubResponse;
        (void)net::runRemoteWorker(opts);
    });

    EXPECT_EQ(result.get(), 1003.0);
    EXPECT_GE(controller->leasesReclaimed(), 1u);
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::WorkerLapsed));
    EXPECT_TRUE(
        events.sawKind(net::LeaseEvent::Kind::LeaseReclaimed));
    bool reclaim_names_cell = false;
    for (const net::LeaseEvent &event : events.snapshot())
        if (event.kind == net::LeaseEvent::Kind::LeaseReclaimed &&
            event.label == "migrating cell" && event.requeues == 1)
            reclaim_names_cell = true;
    EXPECT_TRUE(reclaim_names_cell);

    // The stalled worker wakes up and answers on its reclaimed
    // lease: the result must be rejected, not double-recorded.
    silent.sendDone(stale_lease, 7777.0);
    EXPECT_TRUE(waitUntil(
        [&] { return controller->lateResults() == 1; }));
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::LateResult));

    controller.reset();
    healthy.join();
}

TEST(NetController, BrokenConnectionReclaimsLeaseAndMigrates)
{
    EventLog events;
    auto controller = std::make_unique<net::CampaignController>();
    controller->setLeaseObserver(events.observer());

    FakeWorker flaky(controller->port());
    ASSERT_TRUE(flaky.handshake("flaky").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "orphaned cell");
    std::future<double> result = executeAsync(*controller, job, 5);

    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(flaky.readAssign(lease, assigned));
    flaky.disconnect(); // mid-lease: controller must requeue

    std::thread rescuer([port = controller->port()] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "rescuer";
        opts.simulate = stubResponse;
        (void)net::runRemoteWorker(opts);
    });

    EXPECT_EQ(result.get(), 1005.0);
    EXPECT_EQ(controller->leasesReclaimed(), 1u);
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::WorkerLost));
    EXPECT_TRUE(
        events.sawKind(net::LeaseEvent::Kind::LeaseReclaimed));

    controller.reset();
    rescuer.join();
}

TEST(NetController, MigrationCapEscalatesThroughTheFaultTaxonomy)
{
    net::ControllerOptions options;
    options.maxMigrations = 0; // first lost lease escalates
    net::CampaignController controller(options);

    FakeWorker doomed(controller.port());
    ASSERT_TRUE(doomed.handshake("doomed").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "hot-potato cell");
    std::future<double> result = executeAsync(controller, job, 0);

    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(doomed.readAssign(lease, assigned));
    doomed.disconnect();

    // The reclaim exhausts the migration budget, so the attempt
    // fails with the retryable taxonomy fault — FaultPolicy retry,
    // backoff, and quarantine upstream see a normal transient.
    try {
        result.get();
        FAIL() << "exhausted migrations must throw TransientFault";
    } catch (const TransientFault &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("hot-potato cell"), std::string::npos)
            << what;
        EXPECT_NE(what.find("lost its lease"), std::string::npos)
            << what;
    }
    EXPECT_EQ(controller.leasesReclaimed(), 1u);
}

TEST(NetController, HeartbeatsKeepASlowWorkerLeased)
{
    // The lease clock measures silence, not runtime: a worker that
    // holds one cell longer than the lease duration but keeps
    // heartbeating is never reclaimed.
    net::ControllerOptions options;
    options.lease = std::chrono::milliseconds(200);
    options.heartbeat = std::chrono::milliseconds(40);
    net::CampaignController controller(options);

    FakeWorker slow(controller.port());
    ASSERT_TRUE(slow.handshake("slow").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "slow cell");
    std::future<double> result = executeAsync(controller, job, 2);

    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(slow.readAssign(lease, assigned));
    const auto hold_until = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(600);
    while (std::chrono::steady_clock::now() < hold_until) {
        slow.heartbeat();
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    slow.sendDone(lease, 4242.0);

    EXPECT_EQ(result.get(), 4242.0);
    EXPECT_EQ(controller.leasesReclaimed(), 0u);
    EXPECT_EQ(controller.lateResults(), 0u);
}

// ----- Injected network drills through a real worker -----

namespace
{

/** A worker whose executor raises the given net drill on attempt 1
 *  of every job whose label contains @p substring. */
struct DrilledWorker
{
    rigor::exec::FaultInjector injector;
    std::thread thread;
    net::RemoteWorkerSession session;

    void start(std::uint16_t port, const std::string &name,
               const std::string &substring,
               rigor::exec::FaultKind kind)
    {
        injector.addLabelFault(substring, 1, kind);
        thread = std::thread([this, port, name] {
            net::RemoteWorkerOptions opts;
            opts.port = port;
            opts.name = name;
            opts.simulate = injector.wrap(stubResponse);
            session = net::runRemoteWorker(opts);
        });
    }
};

} // namespace

TEST(NetControllerDrill, DropConnectionDrillMigratesTheCell)
{
    EventLog events;
    auto controller = std::make_unique<net::CampaignController>();
    controller->setLeaseObserver(events.observer());

    DrilledWorker dropper;
    dropper.start(controller->port(), "dropper", "drilled",
                  rigor::exec::FaultKind::DropConnection);
    ASSERT_TRUE(controller->waitForWorkers(
        1, std::chrono::milliseconds(10000)));

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "drilled cell");
    std::future<double> result = executeAsync(*controller, job, 4);
    ASSERT_TRUE(
        waitUntil([&] { return controller->leasesGranted() >= 1; }));

    std::thread survivor([port = controller->port()] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "survivor";
        opts.simulate = stubResponse;
        (void)net::runRemoteWorker(opts);
    });

    EXPECT_EQ(result.get(), 1004.0);
    EXPECT_EQ(dropper.injector.netDrillsRaised(), 1u);
    EXPECT_GE(controller->leasesReclaimed(), 1u);
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::WorkerLost));
    EXPECT_TRUE(
        events.sawKind(net::LeaseEvent::Kind::LeaseReclaimed));
    dropper.thread.join();
    EXPECT_EQ(dropper.session.end, net::SessionEnd::ConnectionLost);

    controller.reset();
    survivor.join();
}

TEST(NetControllerDrill, StallHeartbeatDrillDrawsALateResultRejection)
{
    net::ControllerOptions options;
    options.lease = std::chrono::milliseconds(300);
    options.heartbeat = std::chrono::milliseconds(50);
    EventLog events;
    auto controller =
        std::make_unique<net::CampaignController>(options);
    controller->setLeaseObserver(events.observer());

    DrilledWorker staller;
    staller.start(controller->port(), "staller", "stalled",
                  rigor::exec::FaultKind::StallHeartbeat);
    ASSERT_TRUE(controller->waitForWorkers(
        1, std::chrono::milliseconds(10000)));

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "stalled cell");
    std::future<double> result = executeAsync(*controller, job, 6);
    ASSERT_TRUE(
        waitUntil([&] { return controller->leasesGranted() >= 1; }));

    std::thread healthy([port = controller->port()] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "healthy";
        opts.simulate = stubResponse;
        (void)net::runRemoteWorker(opts);
    });

    // The healthy worker serves the reclaimed cell; the staller's
    // answer on the stale lease is rejected when it finally arrives.
    EXPECT_EQ(result.get(), 1006.0);
    EXPECT_TRUE(waitUntil(
        [&] { return controller->lateResults() == 1; }));
    EXPECT_EQ(staller.injector.netDrillsRaised(), 1u);
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::WorkerLapsed));
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::LateResult));

    controller.reset();
    healthy.join();
    staller.thread.join();
    EXPECT_EQ(staller.session.end, net::SessionEnd::Shutdown);
}

TEST(NetControllerDrill, CorruptFrameDrillIsClassifiedAsTruncated)
{
    EventLog events;
    auto controller = std::make_unique<net::CampaignController>();
    controller->setLeaseObserver(events.observer());

    DrilledWorker corrupter;
    corrupter.start(controller->port(), "corrupter", "torn",
                    rigor::exec::FaultKind::CorruptFrame);
    ASSERT_TRUE(controller->waitForWorkers(
        1, std::chrono::milliseconds(10000)));

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "torn cell");
    std::future<double> result = executeAsync(*controller, job, 8);
    ASSERT_TRUE(
        waitUntil([&] { return controller->leasesGranted() >= 1; }));

    std::thread survivor([port = controller->port()] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "survivor";
        opts.simulate = stubResponse;
        (void)net::runRemoteWorker(opts);
    });

    EXPECT_EQ(result.get(), 1008.0);
    // The bounds-checked reader names the torn frame's byte counts
    // in the worker-lost cause.
    bool truncated_named = false;
    for (const net::LeaseEvent &event : events.snapshot())
        if (event.kind == net::LeaseEvent::Kind::WorkerLost &&
            event.worker == "corrupter" &&
            event.detail.find("truncated") != std::string::npos)
            truncated_named = true;
    EXPECT_TRUE(truncated_named);
    corrupter.thread.join();

    controller.reset();
    survivor.join();
}
