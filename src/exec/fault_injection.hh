/**
 * @file
 * Deterministic seeded fault injection for the execution engine.
 *
 * Every recovery path of the fault-tolerance layer — retry healing,
 * backoff, deadline trips, quarantine, degradation — must be
 * testable without flaky real-world failures. FaultInjector wraps a
 * SimulateFn and raises chosen faults on chosen (job, attempt)
 * pairs:
 *
 *  - Transient: throws TransientFault (healed by a retry when the
 *    policy allows one);
 *  - Permanent: throws PermanentFault (never retried);
 *  - Hang: spins cooperatively until the attempt deadline trips,
 *    then lets DeadlineExceeded propagate — exactly the path a
 *    wedged real simulation takes through the watchdog.
 *
 * The process-level kinds drill the sandbox backend (exec/proc/):
 * they take the executing process down with them, so they are only
 * survivable behind a ProcWorkerPool that runs the injector's wrap()
 * inside its forked workers, where the pool classifies the death:
 *
 *  - Segfault: write through a null pointer (SIGSEGV);
 *  - Abort: std::abort() (SIGABRT);
 *  - BusyLoop: a non-cooperative infinite loop that never polls the
 *    attempt deadline — only the watchdog's SIGKILL ends it;
 *  - AllocBomb: allocate without bound until std::bad_alloc (the
 *    sandbox memory cap) or the kernel OOM killer intervenes;
 *  - KillWorker: raise(SIGKILL) — an externally shot worker.
 *
 * The network kinds drill the distributed backend (exec/net/): they
 * throw NetDrillFault, which the remote worker's executor intercepts
 * and converts into the real network misbehavior — an abruptly
 * dropped connection, a stalled heartbeat that outlives the lease, a
 * deliberately truncated frame — so lease reclaim, requeue, and
 * late-result rejection are testable without real network flakes.
 * Raised outside a remote worker, a NetDrillFault propagates as an
 * ordinary exception and is classified permanent.
 *
 * Faults are keyed by batch job index or by a substring of the job's
 * label ("gzip, factorial cell 0"), so a test or a campaign drill
 * can target one (benchmark, design row) cell precisely. planRandom
 * seeds a reproducible storm of transient faults: the same seed
 * always faults the same (job, attempt) pairs.
 */

#ifndef RIGOR_EXEC_FAULT_INJECTION_HH
#define RIGOR_EXEC_FAULT_INJECTION_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "exec/engine.hh"

namespace rigor::exec
{

/** What an injected fault does to the attempt. */
enum class FaultKind
{
    /** Throw TransientFault (retry heals it). */
    Transient,
    /** Throw PermanentFault (no retry is made). */
    Permanent,
    /** Spin until the attempt deadline trips (DeadlineExceeded). */
    Hang,
    /** Crash the executing process with SIGSEGV (null write). */
    Segfault,
    /** Crash the executing process with SIGABRT (std::abort). */
    Abort,
    /** Non-cooperative infinite loop: never polls the deadline, so
     *  only the process pool's hard-deadline SIGKILL ends it. */
    BusyLoop,
    /** Allocate without bound until bad_alloc / the OOM killer. */
    AllocBomb,
    /** raise(SIGKILL): the worker is shot from outside. */
    KillWorker,
    /** Remote worker: abruptly close the controller connection
     *  mid-lease (the controller reclaims and requeues). */
    DropConnection,
    /** Remote worker: stop heartbeating past the lease, then send
     *  the stale result late (drills reclaim + late rejection). */
    StallHeartbeat,
    /** Remote worker: send a deliberately truncated frame and close
     *  (drills the controller's TruncatedFrame handling). */
    CorruptFrame,
    /** Remote worker: drop the connection but keep the job for the
     *  resumed session — the cell completes under its original lease
     *  (drills session parking / lease handback). One-shot. */
    Partition,
    /** Remote worker: a partition followed by rapid connect/resume/
     *  hang-up cycles (drills repeated park/resume). One-shot. */
    ReconnectStorm,
    /** Remote worker: trickle a valid result frame a few bytes at a
     *  time (drills the controller's blocking reader). One-shot. */
    SlowLoris,
    /** Remote worker: probe the controller with a second handshake
     *  reusing the live session id; expect SessionRejected, then run
     *  the job normally (drills split-brain protection). One-shot. */
    DuplicateSession,
    /** Remote worker: probe the controller with a wrong-token
     *  handshake; expect AuthRejected, then run the job normally
     *  (drills the auth gate). One-shot. */
    TokenMismatch,
};

/** Display name ("transient" / "permanent" / "hang" / "segfault" /
 *  "abort" / "busy-loop" / "alloc-bomb" / "kill" / "drop-connection"
 *  / "stall-heartbeat" / "corrupt-frame" / "partition" /
 *  "reconnect-storm" / "slow-loris" / "duplicate-session" /
 *  "token-mismatch"). */
std::string toString(FaultKind kind);

/**
 * An injected network drill in flight. Thrown by the injector for the
 * net-level kinds and caught by the remote worker's job executor,
 * which performs the actual misbehavior on its controller connection.
 * Any other executor lets it propagate: it is not a TransientFault,
 * so the engine classifies it permanent — a net drill landing outside
 * a remote worker is a configuration error worth surfacing loudly.
 */
class NetDrillFault : public std::runtime_error
{
  public:
    NetDrillFault(FaultKind kind, const std::string &message)
        : std::runtime_error(message), _kind(kind)
    {
    }

    FaultKind kind() const { return _kind; }

  private:
    FaultKind _kind;
};

/** Deterministic (job, attempt) -> fault plan around a SimulateFn. */
class FaultInjector
{
  public:
    FaultInjector() = default;

    /** Fault attempt @p attempt (1-based) of batch job @p jobIndex. */
    void addFault(std::size_t jobIndex, unsigned attempt,
                  FaultKind kind);

    /**
     * Fault attempt @p attempt of every job whose label contains
     * @p labelSubstring — the way to target "gzip, design row 17"
     * across batches whose job indexing differs.
     */
    void addLabelFault(std::string labelSubstring, unsigned attempt,
                       FaultKind kind);

    /**
     * Seeded storm: for each job in [0, numJobs), with probability
     * @p transientRate, inject transient faults on attempts
     * 1..(attempts-1) — every planned fault is healed by a policy
     * allowing @p attempts attempts. Identical (seed, numJobs,
     * attempts, rate) always plans identical faults.
     */
    void planRandomTransients(std::size_t numJobs, unsigned attempts,
                              double transientRate,
                              std::uint64_t seed);

    /**
     * The engine-facing executor: checks the plan, raises the fault
     * or defers to @p inner (default: the engine's deadline-guarded
     * real simulator). The injector must outlive the engine runs
     * using the returned function.
     */
    SimulateFn wrap(SimulateFn inner = {}) const;

    /** Faults actually raised so far, by kind. */
    std::uint64_t transientsRaised() const
    {
        return _transientsRaised.load(std::memory_order_relaxed);
    }
    std::uint64_t permanentsRaised() const
    {
        return _permanentsRaised.load(std::memory_order_relaxed);
    }
    std::uint64_t hangsRaised() const
    {
        return _hangsRaised.load(std::memory_order_relaxed);
    }
    /** Process-level drills triggered (Segfault/Abort/BusyLoop/
     *  AllocBomb/KillWorker). Only observable when the injector runs
     *  in the counting process — under process isolation the drill
     *  fires inside a forked worker, whose counter dies with it. */
    std::uint64_t processFaultsRaised() const
    {
        return _processFaultsRaised.load(std::memory_order_relaxed);
    }
    /** Network drills thrown (DropConnection/StallHeartbeat/
     *  CorruptFrame) — counted where the injector runs, i.e. in the
     *  remote worker process for a distributed campaign. */
    std::uint64_t netDrillsRaised() const
    {
        return _netDrillsRaised.load(std::memory_order_relaxed);
    }

    /** Planned fault count (index- plus label-keyed). */
    std::size_t plannedFaults() const
    {
        return _byIndex.size() + _byLabel.size();
    }

  private:
    struct LabelFault
    {
        std::string substring;
        unsigned attempt;
        FaultKind kind;
    };

    void raise(FaultKind kind, const SimJob &job,
               const AttemptContext &ctx) const;
    /** One-shot arming: true the first time this planned entry is
     *  hit, false on every later match. The session-resume drills
     *  re-execute the same (job, attempt) after a local requeue, so
     *  without this they would refire forever. */
    bool armOneShot(FaultKind kind, std::size_t entry) const;

    std::map<std::pair<std::size_t, unsigned>, FaultKind> _byIndex;
    std::vector<LabelFault> _byLabel;
    mutable std::mutex _firedMutex;
    /** Consumed one-shot entries: label-fault index, or vector size
     *  plus the by-index entry's ordinal. */
    mutable std::set<std::size_t> _fired;
    mutable std::atomic<std::uint64_t> _transientsRaised{0};
    mutable std::atomic<std::uint64_t> _permanentsRaised{0};
    mutable std::atomic<std::uint64_t> _hangsRaised{0};
    mutable std::atomic<std::uint64_t> _processFaultsRaised{0};
    mutable std::atomic<std::uint64_t> _netDrillsRaised{0};
};

} // namespace rigor::exec

#endif // RIGOR_EXEC_FAULT_INJECTION_HH
