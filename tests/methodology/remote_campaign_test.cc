#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/preflight.hh"
#include "check/rule_ids.hh"
#include "exec/engine.hh"
#include "exec/journal.hh"
#include "exec/net/controller.hh"
#include "exec/net/remote_worker.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/rank_table.hh"
#include "obs/manifest.hh"
#include "trace/workloads.hh"

namespace exec = rigor::exec;
namespace net = rigor::exec::net;
namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

namespace
{

std::vector<trace::WorkloadProfile>
twoWorkloads()
{
    return {trace::workloadByName("gzip"),
            trace::workloadByName("mcf")};
}

std::string
journalPath(const std::string &name)
{
    const std::string path =
        std::string(::testing::TempDir()) + name;
    std::remove(path.c_str());
    return path;
}

/** Local worker threads standing in for remote machines. Workers run
 *  the real simulator, so responses must be bit-identical to the
 *  in-process run. They return when the controller says Shutdown —
 *  join() only after the controller is destroyed. */
struct Fleet
{
    std::vector<std::thread> threads;

    void start(std::uint16_t port, const std::string &name)
    {
        threads.emplace_back([port, name] {
            net::RemoteWorkerOptions opts;
            opts.port = port;
            opts.name = name;
            const net::RemoteWorkerSession session =
                net::runRemoteWorker(opts);
            EXPECT_EQ(session.end, net::SessionEnd::Shutdown)
                << session.error;
        });
    }

    void join()
    {
        for (std::thread &t : threads)
            t.join();
    }
};

methodology::PbExperimentOptions
remoteOptions(net::CampaignController &controller, unsigned workers)
{
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 2000;
    opts.campaign.threads = 2;
    opts.campaign.netController = &controller;
    opts.campaign.remoteWorkers = workers;
    return opts;
}

} // namespace

// ----- The acceptance bar: distributed == single-process, bitwise --

TEST(RemoteCampaign, FleetCampaignMatchesThreadIsolationBitIdentically)
{
    const auto workloads = twoWorkloads();

    // Reference: the same campaign in-process, thread isolation.
    methodology::PbExperimentOptions ref_opts;
    ref_opts.instructionsPerRun = 2000;
    ref_opts.campaign.threads = 2;
    const methodology::PbExperimentResult reference =
        methodology::runPbExperiment(workloads, ref_opts);

    auto controller = std::make_unique<net::CampaignController>();
    Fleet fleet;
    fleet.start(controller->port(), "w1");
    fleet.start(controller->port(), "w2");
    ASSERT_TRUE(controller->waitForWorkers(
        2, std::chrono::milliseconds(10000)));

    const methodology::PbExperimentResult result =
        methodology::runPbExperiment(
            workloads, remoteOptions(*controller, 2));

    // Every response crossed the TCP fleet and came back bitwise
    // equal; the derived rank table is byte-for-byte the same.
    EXPECT_EQ(result.responses, reference.responses);
    EXPECT_EQ(methodology::formatRankTable(result.summaries,
                                           result.benchmarks),
              methodology::formatRankTable(reference.summaries,
                                           reference.benchmarks));
    EXPECT_GE(controller->leasesGranted(), 176u);
    EXPECT_EQ(controller->leasesReclaimed(), 0u);

    controller.reset(); // Shutdown to the fleet
    fleet.join();
}

// ----- Controller kill-and-resume over the journal -----

TEST(RemoteCampaign, ControllerCrashResumesBitIdenticallyOverJournal)
{
    const auto workloads = twoWorkloads();

    methodology::PbExperimentOptions ref_opts;
    ref_opts.instructionsPerRun = 2000;
    ref_opts.campaign.threads = 2;
    const methodology::PbExperimentResult reference =
        methodology::runPbExperiment(workloads, ref_opts);

    const std::string path = journalPath("remote_campaign_resume");

    // The controller process "dies" mid-campaign: the journal crash
    // drill fires after 40 fsync'd appends (journaling stays on the
    // controller side; workers only simulate).
    {
        auto controller =
            std::make_unique<net::CampaignController>();
        Fleet fleet;
        fleet.start(controller->port(), "w1");
        fleet.start(controller->port(), "w2");
        ASSERT_TRUE(controller->waitForWorkers(
            2, std::chrono::milliseconds(10000)));

        exec::ResultJournal journal(path);
        journal.simulateCrashAfter(40);
        methodology::PbExperimentOptions crash_opts =
            remoteOptions(*controller, 2);
        crash_opts.campaign.journal = &journal;
        EXPECT_THROW(
            methodology::runPbExperiment(workloads, crash_opts),
            exec::SimulatedCrash);

        controller.reset();
        fleet.join();
    }

    // A new controller and a new fleet resume from the journal: the
    // 40 persisted cells replay from disk, the rest are re-leased to
    // the workers, and no cell runs twice.
    auto controller = std::make_unique<net::CampaignController>();
    Fleet fleet;
    fleet.start(controller->port(), "w1");
    fleet.start(controller->port(), "w2");
    ASSERT_TRUE(controller->waitForWorkers(
        2, std::chrono::milliseconds(10000)));

    exec::ResultJournal journal(path);
    EXPECT_EQ(journal.loadedRecords(), 40u);
    exec::SimulationEngine engine(exec::EngineOptions{2, true});
    rigor::obs::CampaignManifest manifest;
    methodology::PbExperimentOptions resume_opts =
        remoteOptions(*controller, 2);
    resume_opts.campaign.journal = &journal;
    resume_opts.campaign.engine = &engine;
    resume_opts.campaign.manifest = &manifest;
    const methodology::PbExperimentResult resumed =
        methodology::runPbExperiment(workloads, resume_opts);

    EXPECT_EQ(engine.progress().snapshot().journalHits, 40u);
    EXPECT_EQ(resumed.responses, reference.responses);
    EXPECT_EQ(methodology::formatRankTable(resumed.summaries,
                                           resumed.benchmarks),
              methodology::formatRankTable(reference.summaries,
                                           reference.benchmarks));

    // Manifest provenance: every freshly simulated cell names the
    // worker that served it; journal replays carry no host.
    std::istringstream lines(manifest.toJsonl());
    std::string line;
    std::size_t simulated = 0;
    std::size_t replayed = 0;
    while (std::getline(lines, line)) {
        if (line.find("\"type\":\"cell\"") == std::string::npos)
            continue;
        if (line.find("\"source\":\"journal\"") != std::string::npos) {
            ++replayed;
            EXPECT_EQ(line.find("\"host\""), std::string::npos)
                << line;
        } else if (line.find("\"source\":\"simulated\"") !=
                   std::string::npos) {
            ++simulated;
            EXPECT_TRUE(
                line.find("\"host\":\"w1\"") != std::string::npos ||
                line.find("\"host\":\"w2\"") != std::string::npos)
                << line;
        }
    }
    EXPECT_EQ(replayed, 40u);
    EXPECT_EQ(simulated, 176u - 40u);

    controller.reset();
    fleet.join();
}

// ----- Guard rails -----

TEST(RemoteCampaign, PreflightRejectsARemotePlanWithNoWorkers)
{
    const auto workloads = twoWorkloads();
    net::CampaignController controller;
    methodology::PbExperimentOptions opts =
        remoteOptions(controller, 0);
    EXPECT_THROW(methodology::runPbExperiment(workloads, opts),
                 rigor::check::PreflightError);
}

TEST(RemoteCampaign, PreflightChecksTheControllersOwnLease)
{
    // The lease the fleet runs with is the controller's: a 2 s lease
    // cannot cover a 5 s attempt deadline, whatever else the
    // campaign says. A live worker makes the mistake visible as a
    // completed campaign, not a hang, if the pre-flight misses it.
    const auto workloads = twoWorkloads();
    net::ControllerOptions net_opts;
    net_opts.lease = std::chrono::milliseconds(2000);
    net_opts.heartbeat = std::chrono::milliseconds(500);
    auto controller =
        std::make_unique<net::CampaignController>(net_opts);
    Fleet fleet;
    fleet.start(controller->port(), "w1");
    ASSERT_TRUE(controller->waitForWorkers(
        1, std::chrono::milliseconds(10000)));

    methodology::PbExperimentOptions opts =
        remoteOptions(*controller, 1);
    opts.campaign.faultPolicy.attemptDeadline =
        std::chrono::milliseconds(5000);
    try {
        (void)methodology::runPbExperiment(workloads, opts);
        ADD_FAILURE() << "a lease shorter than the attempt deadline "
                         "passed the pre-flight";
    } catch (const rigor::check::PreflightError &e) {
        EXPECT_TRUE(e.sink().hasRule(
            rigor::check::rules::kCampaignLeaseShorterThanDeadline))
            << e.what();
    }
    EXPECT_EQ(controller->leasesGranted(), 0u);

    controller.reset();
    fleet.join();
}
