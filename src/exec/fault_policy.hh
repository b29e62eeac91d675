/**
 * @file
 * Fault taxonomy and per-job fault policy of the execution engine.
 *
 * A reproduction campaign is thousands of long simulations; treating
 * the batch as fail-fast makes the first transient error (an I/O
 * hiccup in a hook, a wedged run) discard every completed cycle. The
 * engine instead classifies each attempt's outcome:
 *
 *  - TransientFault — worth retrying (bounded attempts, each retry
 *    starting at once);
 *  - DeadlineExceeded — the per-attempt watchdog clock expired; the
 *    attempt is treated like a transient fault (a hang may be load-
 *    induced) until the attempts are exhausted;
 *  - ResourceExhausted — the attempt ran out of a hard resource cap
 *    (sandbox memory limit, kernel OOM kill): permanent, since the
 *    same run would exhaust the same cap again;
 *  - any other std::exception — permanent: a deterministic simulator
 *    rethrows the same error on every retry, so none is made;
 *  - BatchAbort — infrastructure failure (journal I/O, simulated
 *    crash drills): the whole batch stops and the error propagates
 *    unclassified.
 *
 * Deadlines come in two strengths. The cooperative one lives here:
 * every attempt carries an AttemptContext whose checkDeadline()
 * throws once the clock runs out, and the engine's default simulate
 * function polls it from the trace source every few thousand
 * instructions — so a wedged *real* simulation surfaces as a
 * diagnosable timeout. Truly non-cooperative code (a tight loop that
 * never polls, a crash, a runaway allocation) is the job of the
 * process-isolated backend in exec/proc/: its monitor thread SIGKILLs
 * a sandbox worker past its hard deadline and the death is classified
 * back into this same taxonomy, so retries, quarantine, and journal
 * resume behave identically under either isolation mode.
 */

#ifndef RIGOR_EXEC_FAULT_POLICY_HH
#define RIGOR_EXEC_FAULT_POLICY_HH

#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace rigor::exec
{

/** A retryable failure (injected or environmental). */
class TransientFault : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** A failure no retry can heal (bad config, deterministic bug). */
class PermanentFault : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** The per-attempt deadline expired (hung / wedged simulation). */
class DeadlineExceeded : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * The attempt exhausted a hard resource cap — a sandbox worker hit
 * its setrlimit memory limit (std::bad_alloc) or was SIGKILLed by the
 * kernel OOM killer. Deterministic for a given run, so never retried;
 * derives from PermanentFault but is classified with its own
 * FailureKind::Resource so quarantine records name the cause.
 */
class ResourceExhausted : public PermanentFault
{
    using PermanentFault::PermanentFault;
};

/**
 * Batch-fatal infrastructure failure: not a property of one job, so
 * it is never quarantined or retried — the engine cancels the batch
 * and rethrows it to the caller (e.g. a journal write error, or the
 * journal's simulated-crash drill).
 */
class BatchAbort : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** How one job's last attempt failed. */
enum class FailureKind
{
    /** Retries exhausted on transient faults. */
    Transient,
    /** Non-retryable error. */
    Permanent,
    /** The attempt deadline expired (hang converted to timeout). */
    Timeout,
    /** A hard resource cap was exhausted (memory limit, OOM kill). */
    Resource,
};

/** Display name ("transient" / "permanent" / "timeout" /
 *  "resource"). */
std::string toString(FailureKind kind);

/** Per-job fault-handling knobs of one engine batch. */
struct FaultPolicy
{
    /** Attempts per job (1 = no retries). 0 is treated as 1. */
    unsigned maxAttempts = 1;
    /**
     * Watchdog deadline per attempt; an attempt running past it is
     * interrupted (cooperatively, see AttemptContext) and classified
     * as a timeout. Zero disables.
     */
    std::chrono::milliseconds attemptDeadline{0};
    /**
     * Collect-all-failures mode: instead of cancelling the batch at
     * the first permanently failed job, quarantine its result slot
     * (NaN) and report every failure in BatchResult::failures, so a
     * campaign driver can run a statistical-validity degradation
     * check over the completed cells.
     */
    bool collectFailures = false;

    /** Effective attempt cap (never 0). */
    unsigned attempts() const { return maxAttempts == 0 ? 1 : maxAttempts; }
};

/**
 * Identity and watchdog clock of one attempt, passed to the simulate
 * function; input only (the attempt's result is its return value).
 * Long-running implementations should poll checkDeadline()
 * periodically; the engine's default simulate function does so from
 * the trace source.
 */
struct AttemptContext
{
    /** Index of the job within the batch. */
    std::size_t jobIndex = 0;
    /** 1-based attempt number. */
    unsigned attempt = 1;
    /** Configured deadline duration (for messages); zero = none. */
    std::chrono::milliseconds deadlineBudget{0};
    /** Absolute expiry; meaningful only when deadlineBudget > 0. */
    std::chrono::steady_clock::time_point deadline{};

    bool hasDeadline() const { return deadlineBudget.count() > 0; }

    /** True once the watchdog clock has run out. */
    bool expired() const
    {
        return hasDeadline() &&
               std::chrono::steady_clock::now() >= deadline;
    }

    /** Throw DeadlineExceeded if the watchdog clock has run out. */
    void checkDeadline() const;
};

/** One job's terminal failure record. */
struct JobFailure
{
    std::size_t jobIndex = 0;
    /** The job's label, e.g. "gzip, design row 17". */
    std::string label;
    FailureKind kind = FailureKind::Permanent;
    /** Attempts actually made (distinguishes retry exhaustion from a
     *  first-try failure). */
    unsigned attempts = 1;
    /** Wall time across every attempt. */
    double elapsedSeconds = 0.0;
    /** The last attempt's error message. */
    std::string message;

    /** "job 'gzip, design row 17' failed (permanent) after 1 attempt
     *  in 0.004 s: ..." */
    std::string toString() const;
};

/** Everything one engine batch produced under a FaultPolicy. */
struct BatchResult
{
    /** Responses in job order; quarantined slots are NaN. */
    std::vector<double> responses;
    /**
     * Sampling CI half-widths in cycles, in job order
     * (CellResult::ciHalfWidthCycles), whether the cell was
     * simulated, a cache hit or a journal replay. 0 for unsampled
     * and failed jobs.
     */
    std::vector<double> ciHalfWidths;
    /** Failures in ascending job order (empty = complete batch). */
    std::vector<JobFailure> failures;

    bool complete() const { return failures.empty(); }
};

} // namespace rigor::exec

#endif // RIGOR_EXEC_FAULT_POLICY_HH
