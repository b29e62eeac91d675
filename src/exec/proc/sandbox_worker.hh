/**
 * @file
 * One forked sandbox worker: spawn mechanics and the child main loop.
 *
 * A SandboxWorker is a child process connected by a request pipe
 * (parent writes JobRequest frames) and a result pipe (child writes
 * JobResult frames). The child is a pure fork — no exec — so it
 * inherits the pool's simulate function, hook factory, and the whole
 * binary; spawn() only has to plumb the two pipes, drop every other
 * inherited descriptor, and apply the resource caps:
 *
 *  - The fd sweep (/proc/self/fd) is load-bearing, not hygiene: a
 *    child forked while sibling workers exist inherits the write ends
 *    of *their* result pipes, and as long as anyone holds a write end
 *    open the parent's blocking read never sees EOF — a sibling's
 *    crash would then hang the campaign instead of being classified.
 *  - setrlimit(RLIMIT_AS) caps the child's address space so a runaway
 *    allocation dies as std::bad_alloc (clean kExitOom exit) or an
 *    OOM kill inside the sandbox, never by taking down the parent.
 *  - Compute runaways are the parent's watchdog's job (a hard
 *    per-attempt deadline); the child sets no CPU-time limit.
 *
 * The child main loop reads requests until EOF (parent closed the
 * request pipe = orderly shutdown) and answers each through the
 * attempt codec declared below. Anything the child cannot catch —
 * SIGSEGV, SIGABRT, the kernel OOM killer, the watchdog's SIGKILL —
 * is classified by the parent from the wait status instead.
 */

#ifndef RIGOR_EXEC_PROC_SANDBOX_WORKER_HH
#define RIGOR_EXEC_PROC_SANDBOX_WORKER_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "exec/engine.hh"
#include "exec/proc/protocol.hh"
#include "sim/core.hh"
#include "trace/workload_profile.hh"

#include <sys/types.h>

namespace rigor::exec::proc
{

/**
 * Builds the enhancement hook for one run inside the child (same
 * shape as methodology::HookFactory; duplicated here because exec
 * must not depend on the methodology layer).
 */
using SandboxHookFactory =
    std::function<std::unique_ptr<sim::ExecutionHook>(
        const trace::WorkloadProfile &profile)>;

/**
 * The attempt codec: how one attempt crosses a process boundary.
 * The sandbox pool ships every attempt through these three calls, so
 * a cell runs and fails the same way in a sandbox as on a thread.
 *
 * makeRequest encodes one attempt of @p job (throws PermanentFault
 * for a job without a workload).
 */
JobRequest makeRequest(const SimJob &job, const AttemptContext &ctx);

/**
 * Rebuild the job and attempt context of a decoded @p request, run
 * it through @p simulate (empty = SimulationEngine::simulateJob),
 * time it, and classify its outcome. The label falls back to the
 * workload name; a hasHook request is rebuilt with @p hookFactory,
 * and without one it fails Permanent rather than run unhooked. A
 * transport that must act on a particular exception (a sandbox's
 * bad_alloc) catches it inside @p simulate on its way through.
 */
JobResult runRequest(const JobRequest &request,
                     const SimulateFn &simulate,
                     const SandboxHookFactory &hookFactory);

/**
 * Unwrap a received result: the cell's cycles and sample summary, or
 * the matching TransientFault / DeadlineExceeded / ResourceExhausted
 * / PermanentFault.
 */
CellResult unwrapResult(const JobResult &result);

/** Everything the child main loop needs (inherited through fork). */
struct SandboxContext
{
    /** Attempt executor; empty = the engine's default simulator. */
    SimulateFn simulate;
    /** Hook builder for requests with hasHook; without one, a
     *  hooked request fails permanent. */
    SandboxHookFactory hookFactory;
    /** RLIMIT_AS cap in MiB; 0 = unlimited. */
    std::uint64_t memLimitMb = 0;
};

/** Parent-side handle of one spawned worker process. */
struct SandboxWorker
{
    pid_t pid = -1;
    /** Parent's write end of the request pipe. */
    int requestFd = -1;
    /** Parent's read end of the result pipe. */
    int resultFd = -1;

    bool alive() const { return pid > 0; }
};

/**
 * Fork one sandbox worker running runSandboxChild over @p context.
 * Throws std::runtime_error if pipe() or fork() fails. The returned
 * handle owns both descriptors; close them with closeWorkerPipes().
 */
SandboxWorker spawnSandboxWorker(const SandboxContext &context);

/** Close the parent-side pipe ends (idempotent). Closing requestFd
 *  is what tells the child to exit its request loop. */
void closeWorkerPipes(SandboxWorker &worker);

/**
 * The child main loop (exposed for white-box testing; normally only
 * called by spawnSandboxWorker inside the fork). Reads JobRequest
 * frames from @p request_fd until EOF, answers each on @p result_fd.
 * Returns the child's exit code.
 */
int runSandboxChild(int request_fd, int result_fd,
                    const SandboxContext &context);

} // namespace rigor::exec::proc

#endif // RIGOR_EXEC_PROC_SANDBOX_WORKER_HH
