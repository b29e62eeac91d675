/**
 * @file
 * Process-isolated attempt executor: a supervised pool of sandbox
 * workers behind the engine's SimulateFn seam.
 *
 * Thread isolation cannot survive the failure modes that matter most
 * in a 1144-run overnight campaign: a SIGSEGV in one attempt kills
 * the whole process and every completed cell with it, a
 * non-cooperative infinite loop never polls the cooperative deadline,
 * and a runaway allocation invites the kernel OOM killer to shoot the
 * campaign itself. ProcWorkerPool forks N sandbox workers
 * (sandbox_worker.hh) and ships each attempt over pipe IPC
 * (protocol.hh); the blast radius of any crash, hang, or OOM is one
 * attempt of one job.
 *
 * Supervision is a monitor thread on a heartbeat tick: it SIGKILLs
 * any worker that outlives the hard per-attempt deadline (no
 * cooperation needed — the kill lands mid-instruction), and reaps and
 * respawns workers that died while idle. Deaths observed by the
 * dispatching thread (EOF on the result pipe) are classified from the
 * wait status back into the engine's fault taxonomy:
 *
 *   watchdog SIGKILL           -> DeadlineExceeded   (retryable)
 *   SIGXCPU (inherited limit)  -> DeadlineExceeded   (retryable)
 *   exit(kExitOom) / bad_alloc -> ResourceExhausted  (permanent)
 *   SIGKILL not from watchdog  -> ResourceExhausted  (kernel OOM)
 *   SIGSEGV/SIGABRT/SIGBUS/... -> PermanentFault     (with run key)
 *
 * so FaultPolicy retries, quarantine, degradation arbitration, and
 * journal resume behave identically under either isolation mode. The
 * dead worker is respawned before the classified fault is thrown, so
 * the pool never shrinks. Counters (engine.proc.respawns / sigkills /
 * oom_kills) and one trace span per worker lifetime make the
 * supervision auditable.
 */

#ifndef RIGOR_EXEC_PROC_WORKER_POOL_HH
#define RIGOR_EXEC_PROC_WORKER_POOL_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.hh"
#include "exec/proc/sandbox_worker.hh"
#include "obs/metrics.hh"

namespace rigor::obs
{
class TraceWriter;
} // namespace rigor::obs

namespace rigor::exec::proc
{

/** Supervised pool of forked sandbox workers. */
class ProcWorkerPool
{
  public:
    struct Options
    {
        /** Sandbox worker processes; 0 is treated as 1. */
        unsigned workers = 1;
        /** Attempt executor run *inside* the children (inherited at
         *  fork); empty = the engine's default simulator. Fault
         *  injectors wrapped here therefore drill inside the
         *  sandbox. */
        SimulateFn simulate;
        /** Hook builder for jobs with makeHook; the children rebuild
         *  hooks from this instead of shipping closures over IPC.
         *  Without one, a hooked job fails permanent. */
        SandboxHookFactory hookFactory;
        /** Per-worker RLIMIT_AS cap in MiB; 0 = unlimited. It also
         *  covers the worker's kept replay trace (up to 32 MiB) and
         *  its kept timing core (see SimulationEngine::simulateJob). */
        std::uint64_t memLimitMb = 0;
        /**
         * Hard per-attempt deadline: the monitor SIGKILLs a worker
         * busy past it. Needs no cooperation from the simulated code,
         * unlike FaultPolicy::attemptDeadline (which still works
         * inside the sandbox and yields nicer diagnostics — use both:
         * cooperative slightly below hard). Zero disables.
         */
        std::chrono::milliseconds hardDeadline{0};
        /** Monitor tick: watchdog check + idle-death reaping. */
        std::chrono::milliseconds heartbeat{20};
    };

    /** Spawns the workers and starts the monitor thread. SIGPIPE is
     *  ignored for the process lifetime (a dead child must surface
     *  as EPIPE, not kill the campaign). */
    explicit ProcWorkerPool(Options options);

    /** Shuts the monitor down, closes the request pipes (children
     *  exit their loops), and reaps every worker. */
    ~ProcWorkerPool();

    ProcWorkerPool(const ProcWorkerPool &) = delete;
    ProcWorkerPool &operator=(const ProcWorkerPool &) = delete;

    /**
     * The dispatch adapter to install via
     * SimulationEngine::setSimulate. The pool must outlive every
     * batch run through it.
     */
    SimulateFn simulateFn();

    /**
     * Ship one attempt to a free worker and block for its outcome.
     * Returns the cell's result, or throws the classified fault
     * (TransientFault / DeadlineExceeded / ResourceExhausted /
     * PermanentFault — see the file comment). Thread-safe; callers
     * beyond the worker count queue on a condition variable.
     */
    CellResult execute(const SimJob &job, const AttemptContext &ctx);

    unsigned workers() const
    {
        return static_cast<unsigned>(_slots.size());
    }

    /** Workers respawned after any death (all causes). */
    std::uint64_t respawns() const { return total(_respawns); }
    /** Watchdog hard-deadline SIGKILLs issued. */
    std::uint64_t sigkills() const { return total(_sigkills); }
    /** Deaths classified as memory exhaustion (kExitOom exits plus
     *  non-watchdog SIGKILLs). */
    std::uint64_t oomKills() const { return total(_oomKills); }

    /**
     * Count engine.proc.{respawns,sigkills,oom_kills} in @p metrics
     * (not owned) from here on; nullptr counts them in the pool's own
     * registry. The getters above read whichever registry counts, so
     * attach before the first attempt.
     */
    void setMetrics(obs::MetricsRegistry *metrics);

    /** Attach a trace sink: one "proc.worker" span per worker
     *  lifetime, closed at death or shutdown with its exit reason
     *  and jobs served (not owned; nullptr detaches). */
    void setTraceWriter(obs::TraceWriter *trace);

  private:
    struct Slot
    {
        SandboxWorker worker;
        unsigned index = 0;
        bool busy = false;
        /** The watchdog SIGKILLed this worker's current attempt. */
        bool watchdogKilled = false;
        /** Hard-deadline expiry of the current attempt. */
        std::chrono::steady_clock::time_point deadline{};
        /** Jobs answered by this incarnation (trace span arg). */
        std::uint64_t jobsDone = 0;
        /** Trace clock at spawn (span start). */
        std::uint64_t spawnTs = 0;
    };

    /** Close the dead worker's pipes and span, fork a replacement.
     *  Caller holds _mutex and has already reaped the pid. */
    void respawnLocked(Slot &slot, const std::string &exit_reason);
    /** Close @p slot's lifetime trace span. Caller holds _mutex. */
    void closeSpanLocked(const Slot &slot,
                         const std::string &exit_reason);
    /** Throw the fault classified from @p status. Caller holds
     *  _mutex (unwinding releases it). Never returns. */
    [[noreturn]] void throwClassifiedLocked(int status,
                                            bool watchdog_killed,
                                            const std::string &identity);
    /** Read one supervision counter under _mutex. */
    std::uint64_t total(obs::Counter *const &counter) const
    {
        const std::scoped_lock lock(_mutex);
        return counter->value();
    }
    void monitorLoop();

    Options _options;
    SandboxContext _context;
    std::vector<Slot> _slots;

    mutable std::mutex _mutex;
    std::condition_variable _freeCv;
    std::condition_variable _monitorCv;
    bool _stopping = false;
    /** Counts supervision events while no registry is attached. */
    obs::MetricsRegistry _ownMetrics;
    obs::Counter *_respawns = nullptr;
    obs::Counter *_sigkills = nullptr;
    obs::Counter *_oomKills = nullptr;
    obs::TraceWriter *_trace = nullptr;

    std::thread _monitor;
};

} // namespace rigor::exec::proc

#endif // RIGOR_EXEC_PROC_WORKER_POOL_HH
