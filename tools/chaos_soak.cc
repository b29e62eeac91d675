/**
 * @file
 * Deterministic chaos soak for the distributed campaign backend.
 *
 * Runs the paper's Plackett-Burman screen over a real localhost TCP
 * fleet, round after round, while a seeded drill schedule composes
 * the network fault injectors: partitions healed inside the session
 * grace window, reconnect storms, slow-loris result frames, stalled
 * heartbeats, torn frames, dropped connections, duplicate-session
 * probes, and wrong-token handshakes. Every round must end with
 *
 *  - a rank table bit-identical to the single-process reference,
 *  - a journal holding every cell exactly once (no duplicates, no
 *    losses, no torn records), and
 *  - the round's drills actually observed in the controller's
 *    counters (a soak whose faults never fired proves nothing).
 *
 * One round additionally drains the controller mid-campaign — the
 * SIGTERM path — and resumes from the journal with a fresh fleet,
 * proving the drain/resume cycle preserves bit-identical results.
 *
 * The schedule is a pure function of --seed: the same seed always
 * drills the same cells with the same faults in the same rounds,
 * so a CI failure replays exactly.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <stdlib.h>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cli_options.hh"
#include "exec/engine.hh"
#include "exec/fault_injection.hh"
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

constexpr const char *kFleetToken = "chaos-soak-fleet-token";

struct CliOptions
{
    std::uint64_t seed = 7;
    unsigned rounds = 5;
    unsigned workers = 3;
    std::string workdir;
};

constexpr const char *kSynopsis =
    "[options]\n"
    "\n"
    "Seeded chaos soak of the distributed campaign backend.\n"
    "Each round runs the gzip+mcf Plackett-Burman screen over a\n"
    "real localhost TCP fleet under a composed fault schedule\n"
    "and asserts the rank table stays bit-identical to a\n"
    "single-process run with a loss-free, duplicate-free\n"
    "journal. Round types cycle: partition-grace, storm-loris,\n"
    "impostors, stall-tear, drain-resume.";

/** The soak aborts on its first broken invariant, loudly. */
struct SoakFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

void
require(bool ok, const std::string &what)
{
    if (!ok)
        throw SoakFailure(what);
}

/** SplitMix64: the seed is the whole schedule. */
struct Rng
{
    std::uint64_t state;

    std::uint64_t next()
    {
        state += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/** One planned drill: fault @p kind on the cell whose label contains
 *  @p label, first attempt, at most once per worker. */
struct DrillPlan
{
    std::string label;
    exec::FaultKind kind;
};

/**
 * A per-worker drill executor. Unlike FaultInjector's label faults
 * (where the classic Drop/Stall/Corrupt kinds refire on requeue),
 * every planned entry here is strictly one-shot per worker: a
 * requeued cell landing back on a worker that already fired its
 * drill simulates normally, so the soak always converges instead of
 * climbing the migration-cap escalation.
 */
class DrillBoard
{
  public:
    explicit DrillBoard(std::vector<DrillPlan> plans)
        : _plans(std::move(plans)), _fired(_plans.size())
    {
        for (std::unique_ptr<std::atomic<bool>> &flag : _fired)
            flag = std::make_unique<std::atomic<bool>>(false);
    }

    exec::SimulateFn simulate()
    {
        return [this](const exec::SimJob &job,
                      const exec::AttemptContext &ctx) {
            for (std::size_t i = 0; i < _plans.size(); ++i) {
                if (ctx.attempt != 1)
                    continue;
                if (job.label.find(_plans[i].label) ==
                    std::string::npos)
                    continue;
                if (_fired[i]->exchange(true))
                    continue;
                throw exec::NetDrillFault(
                    _plans[i].kind,
                    "chaos drill: " + toString(_plans[i].kind) +
                        " on '" + job.label + "'");
            }
            return exec::SimulationEngine::simulateJob(job, ctx);
        };
    }

  private:
    std::vector<DrillPlan> _plans;
    std::vector<std::unique_ptr<std::atomic<bool>>> _fired;
};

/** Local worker threads standing in for remote machines. */
struct Fleet
{
    std::vector<std::thread> threads;
    std::vector<std::unique_ptr<DrillBoard>> boards;

    void start(std::uint16_t port, unsigned count, unsigned round,
               const std::vector<DrillPlan> &plans)
    {
        for (unsigned w = 0; w < count; ++w) {
            boards.push_back(std::make_unique<DrillBoard>(plans));
            DrillBoard *board = boards.back().get();
            const std::string name =
                "cw" + std::to_string(w + 1);
            const std::string session =
                name + "/round" + std::to_string(round);
            threads.emplace_back([port, name, session, board] {
                net::RemoteWorkerOptions opts;
                opts.port = port;
                opts.name = name;
                opts.sessionId = session;
                opts.simulate = board->simulate();
                opts.authToken = kFleetToken;
                opts.reconnectAttempts = 20;
                opts.reconnectDelay =
                    std::chrono::milliseconds(100);
                (void)net::runRemoteWorker(opts);
            });
        }
    }

    void join()
    {
        for (std::thread &t : threads)
            t.join();
        threads.clear();
        boards.clear();
    }
};

net::ControllerOptions
controllerOptions()
{
    net::ControllerOptions options;
    options.lease = std::chrono::milliseconds(1500);
    options.heartbeat = std::chrono::milliseconds(300);
    options.sessionGrace = std::chrono::milliseconds(3000);
    options.authToken = kFleetToken;
    // Every worker may legitimately fire the same drop/stall drill
    // on one requeued cell before the board runs dry; the migration
    // cap must sit safely above that.
    options.maxMigrations = 8;
    return options;
}

/** One campaign on @p controller's fleet, journaled to @p journal. */
methodology::PbExperimentResult
runSoakCampaign(const std::vector<trace::WorkloadProfile> &workloads,
                net::CampaignController &controller, unsigned workers,
                exec::ResultJournal &journal)
{
    exec::SimulationEngine engine(
        exec::EngineOptions{workers, true, controller.simulateFn()});
    methodology::PbExperimentOptions opts;
    opts.instructionsPerRun = 2000;
    opts.campaign.engine = &engine;
    opts.campaign.journal = &journal;
    opts.campaign.faultPolicy.maxAttempts = 3;
    return methodology::runPbExperiment(workloads, opts);
}

/** Labels of distinct design cells, drawn without replacement. */
std::vector<std::string>
drawCells(Rng &rng, std::size_t count)
{
    static const char *kBenchmarks[] = {"gzip", "mcf"};
    std::set<std::pair<unsigned, unsigned>> used;
    std::vector<std::string> labels;
    while (labels.size() < count) {
        const auto bench =
            static_cast<unsigned>(rng.below(2));
        const auto row = static_cast<unsigned>(rng.below(88));
        if (!used.insert({bench, row}).second)
            continue;
        labels.push_back(std::string(kBenchmarks[bench]) +
                         ", design row " + std::to_string(row));
    }
    return labels;
}

/** The round's journal must hold every cell exactly once. */
void
checkJournalIntegrity(const std::string &path,
                      std::size_t expectedCells)
{
    const exec::ResultJournal journal(path);
    require(journal.tornRecords() == 0,
            "journal '" + path + "' has torn records");
    require(journal.duplicateRecords() == 0,
            "journal '" + path + "' has duplicate records");
    require(journal.loadedRecords() == expectedCells,
            "journal holds " + std::to_string(journal.loadedRecords()) +
                " of " + std::to_string(expectedCells) + " cells");
}

/** What one soak round is made of and must prove. */
enum class RoundType
{
    /** Partitions healed inside the grace window: parked sessions
     *  resume with their lease and result, zero requeues. */
    PartitionGrace,
    /** Reconnect storms plus slow-loris result frames. */
    StormLoris,
    /** Duplicate-session and wrong-token probes plus a dropped
     *  connection: the gatekeepers fire, the campaign shrugs. */
    Impostors,
    /** Stalled heartbeats (lapse + late result) and torn frames. */
    StallTear,
    /** Controller drains mid-campaign, a fresh fleet resumes the
     *  journal to a bit-identical finish. */
    DrainResume,
};

const char *
toString(RoundType type)
{
    switch (type) {
      case RoundType::PartitionGrace:
        return "partition-grace";
      case RoundType::StormLoris:
        return "storm-loris";
      case RoundType::Impostors:
        return "impostors";
      case RoundType::StallTear:
        return "stall-tear";
      case RoundType::DrainResume:
        return "drain-resume";
    }
    return "unknown";
}

std::vector<DrillPlan>
planRound(RoundType type, Rng &rng, unsigned workers)
{
    std::vector<DrillPlan> plans;
    switch (type) {
      case RoundType::PartitionGrace: {
        const auto cells = drawCells(rng, workers);
        for (const std::string &label : cells)
            plans.push_back({label, exec::FaultKind::Partition});
        break;
      }
      case RoundType::StormLoris: {
        const auto cells = drawCells(rng, 2);
        plans.push_back(
            {cells[0], exec::FaultKind::ReconnectStorm});
        plans.push_back({cells[1], exec::FaultKind::SlowLoris});
        break;
      }
      case RoundType::Impostors: {
        const auto cells = drawCells(rng, 3);
        plans.push_back(
            {cells[0], exec::FaultKind::DuplicateSession});
        plans.push_back({cells[1], exec::FaultKind::TokenMismatch});
        plans.push_back(
            {cells[2], exec::FaultKind::DropConnection});
        break;
      }
      case RoundType::StallTear: {
        const auto cells = drawCells(rng, 2);
        plans.push_back(
            {cells[0], exec::FaultKind::StallHeartbeat});
        plans.push_back({cells[1], exec::FaultKind::CorruptFrame});
        break;
      }
      case RoundType::DrainResume:
        break; // the drain itself is the fault
    }
    return plans;
}

struct Reference
{
    std::vector<std::vector<double>> responses;
    std::string rankTable;
};

void
checkAgainstReference(const methodology::PbExperimentResult &result,
                      const Reference &reference)
{
    require(result.responses == reference.responses,
            "fleet responses diverge from the single-process "
            "reference");
    require(methodology::formatRankTable(
                result.summaries, result.benchmarks) ==
                reference.rankTable,
            "rank table diverges from the single-process reference");
}

void
runRound(unsigned round, RoundType type, Rng &rng,
         const CliOptions &cli, const Reference &reference,
         const std::vector<trace::WorkloadProfile> &workloads)
{
    const std::vector<DrillPlan> plans =
        planRound(type, rng, cli.workers);
    for (const DrillPlan &plan : plans)
        std::printf("  drill: %s on '%s'\n",
                    toString(plan.kind).c_str(),
                    plan.label.c_str());

    const std::string journal_path = cli.workdir + "/round" +
                                     std::to_string(round) +
                                     ".journal";
    std::remove(journal_path.c_str());

    auto controller = std::make_unique<net::CampaignController>(
        controllerOptions());
    Fleet fleet;
    fleet.start(controller->port(), cli.workers, round, plans);
    require(controller->waitForWorkers(
                cli.workers, std::chrono::milliseconds(10000)),
            "fleet never assembled");

    if (type == RoundType::DrainResume) {
        // Phase 1: drain mid-campaign. The trigger watches the
        // fsync'd journal — the same progress probe the SIGTERM
        // handler path uses — and drains once a third of the cells
        // have landed.
        exec::ResultJournal journal(journal_path);
        std::atomic<bool> cancel{false};
        std::thread trigger([&controller, &journal, &cancel] {
            while (!cancel.load() && journal.size() < 60)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            if (!cancel.load())
                controller->beginDrain(
                    std::chrono::milliseconds(2500));
        });
        struct TriggerJoin
        {
            std::atomic<bool> &cancel;
            std::thread &thread;
            ~TriggerJoin()
            {
                cancel.store(true);
                if (thread.joinable())
                    thread.join();
            }
        } trigger_join{cancel, trigger};
        bool drained = false;
        try {
            runSoakCampaign(workloads, *controller, cli.workers,
                            journal);
        } catch (const std::exception &e) {
            drained = controller->draining();
            if (!drained)
                throw;
            std::printf("  drained mid-campaign: %s\n", e.what());
        }
        cancel.store(true);
        trigger.join();
        require(drained, "the drain never interrupted the campaign");
        controller.reset();
        fleet.join();

        // Phase 2: a fresh controller and fleet resume the journal.
        exec::ResultJournal resumed_journal(journal_path);
        require(resumed_journal.loadedRecords() >= 60,
                "drained journal lost its records");
        require(resumed_journal.tornRecords() == 0,
                "drained journal has torn records");
        std::printf("  resuming %zu journaled cells\n",
                    resumed_journal.loadedRecords());
        controller = std::make_unique<net::CampaignController>(
            controllerOptions());
        fleet.start(controller->port(), cli.workers, round + 1000,
                    {});
        require(controller->waitForWorkers(
                    cli.workers, std::chrono::milliseconds(10000)),
                "resume fleet never assembled");
        const methodology::PbExperimentResult result =
            runSoakCampaign(workloads, *controller, cli.workers,
                            resumed_journal);
        checkAgainstReference(result, reference);
        controller.reset();
        fleet.join();
    } else {
        exec::ResultJournal journal(journal_path);
        const methodology::PbExperimentResult result =
            runSoakCampaign(workloads, *controller, cli.workers,
                            journal);
        checkAgainstReference(result, reference);

        switch (type) {
          case RoundType::PartitionGrace:
            // The acceptance bar: every partition healed inside the
            // grace window, in-flight cells completed under their
            // original lease, zero requeues.
            require(controller->sessionsResumed() >= 1,
                    "no partition drill led to a session resume");
            require(controller->leasesReclaimed() == 0,
                    "a partitioned cell was requeued despite the "
                    "grace window");
            require(controller->sessionsParked() >= 1,
                    "no session was ever parked");
            break;
          case RoundType::StormLoris:
            require(controller->sessionsResumed() >= 1,
                    "the reconnect storm never resumed a session");
            break;
          case RoundType::Impostors:
            require(controller->sessionsRejected() >= 1,
                    "the duplicate-session probe was not rejected");
            require(controller->authRejected() >= 1,
                    "the wrong-token probe was not rejected");
            require(controller->leasesReclaimed() >= 1,
                    "the dropped connection reclaimed no lease");
            break;
          case RoundType::StallTear:
            require(controller->leasesReclaimed() >= 1,
                    "the stalled heartbeat reclaimed no lease");
            require(controller->lateResults() >= 1,
                    "the stale post-lapse result was not rejected "
                    "as late");
            break;
          case RoundType::DrainResume:
            break; // handled above
        }
        controller.reset();
        fleet.join();
    }

    checkJournalIntegrity(journal_path, 176);
    std::remove(journal_path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    namespace tools = rigor::tools;
    CliOptions cli;
    const tools::FlagTable flags = {
        {"--seed", "N", "seed of the drill schedule (default 7)",
         tools::number(cli.seed)},
        {"--rounds", "N", "rounds to soak (default 5)",
         tools::number(cli.rounds, tools::Bound::Positive)},
        {"--workers", "N", "fleet size (default 3)",
         tools::number(cli.workers, tools::Bound::Positive)},
        {"--workdir", "DIR",
         "where round journals go (default: a fresh /tmp directory)",
         tools::text(cli.workdir)},
    };
    if (!tools::parseFlags(argc, argv, "chaos_soak", flags))
        return tools::printUsage(argv[0], kSynopsis, flags);
    if (cli.workdir.empty()) {
        char templ[] = "/tmp/chaos_soak.XXXXXX";
        const char *dir = ::mkdtemp(templ);
        if (dir == nullptr) {
            std::perror("mkdtemp");
            return 1;
        }
        cli.workdir = dir;
    }

    try {
        const std::vector<trace::WorkloadProfile> workloads = {
            trace::workloadByName("gzip"),
            trace::workloadByName("mcf")};

        // The single-process reference every round must reproduce
        // bit for bit.
        methodology::PbExperimentOptions ref_opts;
        ref_opts.instructionsPerRun = 2000;
        ref_opts.campaign.threads = cli.workers;
        const methodology::PbExperimentResult ref_result =
            methodology::runPbExperiment(workloads, ref_opts);
        Reference reference;
        reference.responses = ref_result.responses;
        reference.rankTable = methodology::formatRankTable(
            ref_result.summaries, ref_result.benchmarks);

        Rng rng{cli.seed};
        for (unsigned round = 0; round < cli.rounds; ++round) {
            const auto type = static_cast<RoundType>(round % 5);
            std::printf("round %u/%u: %s\n", round + 1, cli.rounds,
                        toString(type));
            runRound(round, type, rng, cli, reference, workloads);
            std::printf("  rank table bit-identical, journal "
                        "loss-free and duplicate-free\n");
        }
    } catch (const SoakFailure &failure) {
        std::fprintf(stderr, "chaos soak FAILED: %s\n",
                     failure.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "chaos soak errored: %s\n", e.what());
        return 1;
    }

    std::printf("chaos soak passed: %u round(s), seed %llu, "
                "%u workers\n",
                cli.rounds,
                static_cast<unsigned long long>(cli.seed),
                cli.workers);
    return 0;
}
