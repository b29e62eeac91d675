/**
 * @file
 * Isolation mode of a campaign's attempt executor.
 *
 * Thread isolation runs every attempt on the engine's own worker
 * threads: fast (no IPC), but a segfault, abort, uncontrolled
 * allocation, or non-cooperative infinite loop in one attempt takes
 * the whole campaign process down with it. Process isolation runs
 * each attempt inside a forked sandbox worker supervised by
 * exec::proc::ProcWorkerPool: a crash, OOM kill, or hard-deadline
 * SIGKILL costs exactly one attempt of one job — the worker is
 * respawned and the campaign keeps its completed cells.
 *
 * A campaign can also run on a TCP worker fleet; that is not a third
 * mode here but CampaignOptions::netController being set, so a
 * "remote campaign without a controller" cannot be expressed. Each
 * worker of the fleet picks its own Thread or Process mode.
 */

#ifndef RIGOR_EXEC_ISOLATION_HH
#define RIGOR_EXEC_ISOLATION_HH

#include <string>

namespace rigor::exec
{

/** Where a campaign's simulation attempts execute. */
enum class IsolationMode
{
    /** In-process, on the engine's worker threads (the default). */
    Thread,
    /** In forked sandbox workers behind pipe IPC (crash-proof). */
    Process,
};

/** Display name ("thread" / "process"). */
std::string toString(IsolationMode mode);

/** Parse "thread" / "process"; false on anything else. */
bool parseIsolationMode(const std::string &text, IsolationMode &mode);

} // namespace rigor::exec

#endif // RIGOR_EXEC_ISOLATION_HH
