#include "exec/proc/worker_pool.hh"

#include <csignal>
#include <stdexcept>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "exec/run_cache.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"

namespace rigor::exec::proc
{

namespace
{

std::string
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV:
        return "SIGSEGV";
      case SIGABRT:
        return "SIGABRT";
      case SIGBUS:
        return "SIGBUS";
      case SIGILL:
        return "SIGILL";
      case SIGFPE:
        return "SIGFPE";
      case SIGKILL:
        return "SIGKILL";
      case SIGXCPU:
        return "SIGXCPU";
      case SIGTERM:
        return "SIGTERM";
      default:
        return "signal " + std::to_string(sig);
    }
}

std::string
describeWaitStatus(int status)
{
    if (WIFEXITED(status))
        return "exit:" + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "signal:" + signalName(WTERMSIG(status));
    return "unknown";
}

/** The failing run's identity for fault messages: label plus the
 *  run-cache key (the journal/manifest key), so a quarantined cell
 *  can be traced to the exact configuration that crashed. */
std::string
jobIdentity(const SimJob &job)
{
    const std::string label =
        !job.label.empty()
            ? "'" + job.label + "'"
            : (job.workload != nullptr ? "'" + job.workload->name + "'"
                                       : "<unlabeled job>");
    if (!job.cacheable() || job.workload == nullptr)
        return label;
    RunKey key;
    key.workload = job.workload->name;
    key.config = job.config;
    key.instructions = job.instructions;
    key.warmupInstructions = job.warmupInstructions;
    key.hookId = job.hookId;
    key.samplingId = job.sampling.id();
    return label + " (run key " + key.toString() + ")";
}

} // namespace

ProcWorkerPool::ProcWorkerPool(Options options)
    : _options(std::move(options))
{
    if (_options.workers == 0)
        _options.workers = 1;
    if (_options.heartbeat.count() <= 0)
        _options.heartbeat = std::chrono::milliseconds(20);

    // A worker that dies holding the far end of a pipe must surface
    // as EPIPE in writeFrame, not as a fatal SIGPIPE to the campaign.
    ::signal(SIGPIPE, SIG_IGN);

    _context = {_options.simulate, _options.hookFactory,
                _options.memLimitMb};

    setMetrics(nullptr);

    _slots.resize(_options.workers);
    for (unsigned i = 0; i < _options.workers; ++i) {
        _slots[i].index = i;
        _slots[i].worker = spawnSandboxWorker(_context);
    }

    _monitor = std::thread([this] { monitorLoop(); });
}

ProcWorkerPool::~ProcWorkerPool()
{
    {
        const std::scoped_lock lock(_mutex);
        _stopping = true;
    }
    _monitorCv.notify_all();
    _freeCv.notify_all();
    if (_monitor.joinable())
        _monitor.join();

    for (Slot &slot : _slots) {
        if (!slot.worker.alive())
            continue;
        closeWorkerPipes(slot.worker); // request EOF: child exits
        int status = 0;
        ::waitpid(slot.worker.pid, &status, 0);
        closeSpanLocked(slot, "shutdown");
        slot.worker.pid = -1;
    }
}

void
ProcWorkerPool::setMetrics(obs::MetricsRegistry *metrics)
{
    const std::scoped_lock lock(_mutex);
    obs::MetricsRegistry &registry =
        metrics != nullptr ? *metrics : _ownMetrics;
    _respawns = &registry.counter("engine.proc.respawns");
    _sigkills = &registry.counter("engine.proc.sigkills");
    _oomKills = &registry.counter("engine.proc.oom_kills");
}

void
ProcWorkerPool::setTraceWriter(obs::TraceWriter *trace)
{
    const std::scoped_lock lock(_mutex);
    _trace = trace;
    if (_trace != nullptr) {
        // Workers spawned before the sink attached get their span
        // opened now, so every lifetime is covered from here on.
        const std::uint64_t now = _trace->nowMicros();
        for (Slot &slot : _slots)
            slot.spawnTs = now;
    }
}

SimulateFn
ProcWorkerPool::simulateFn()
{
    return [this](const SimJob &job, const AttemptContext &ctx) {
        return execute(job, ctx);
    };
}

void
ProcWorkerPool::closeSpanLocked(const Slot &slot,
                                const std::string &exit_reason)
{
    if (_trace == nullptr)
        return;
    obs::TraceWriter::Args args;
    args.emplace_back("worker", std::to_string(slot.index));
    args.emplace_back("jobs", std::to_string(slot.jobsDone));
    args.emplace_back("exit", exit_reason);
    _trace->addCompleteEvent("proc.worker", "proc", slot.spawnTs,
                             _trace->nowMicros() - slot.spawnTs,
                             slot.index + 1, std::move(args));
}

void
ProcWorkerPool::respawnLocked(Slot &slot,
                              const std::string &exit_reason)
{
    closeWorkerPipes(slot.worker);
    closeSpanLocked(slot, exit_reason);
    slot.worker = spawnSandboxWorker(_context);
    slot.jobsDone = 0;
    slot.watchdogKilled = false;
    slot.spawnTs = _trace != nullptr ? _trace->nowMicros() : 0;
    _respawns->add();
}

void
ProcWorkerPool::throwClassifiedLocked(int status, bool watchdog_killed,
                                      const std::string &identity)
{
    if (watchdog_killed)
        throw DeadlineExceeded(
            "sandbox worker exceeded the " +
            std::to_string(_options.hardDeadline.count()) +
            " ms hard deadline and was SIGKILLed by the watchdog "
            "while simulating " +
            identity);
    if (WIFEXITED(status)) {
        const int code = WEXITSTATUS(status);
        if (code == kExitOom) {
            _oomKills->add();
            throw ResourceExhausted(
                "sandbox worker exhausted its memory limit (" +
                std::to_string(_options.memLimitMb) +
                " MiB) while simulating " + identity);
        }
        throw PermanentFault(
            "sandbox worker exited with code " + std::to_string(code) +
            " without answering while simulating " + identity);
    }
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        if (sig == SIGKILL) {
            // Not our watchdog, so the kernel's OOM killer is the
            // usual suspect: permanent, like any resource exhaustion.
            _oomKills->add();
            throw ResourceExhausted(
                "sandbox worker was SIGKILLed outside the watchdog "
                "(kernel OOM killer?) while simulating " +
                identity);
        }
        if (sig == SIGXCPU)
            throw DeadlineExceeded(
                "sandbox worker exceeded its CPU time limit "
                "(SIGXCPU) while simulating " +
                identity);
        throw PermanentFault("sandbox worker crashed with " +
                             signalName(sig) + " while simulating " +
                             identity);
    }
    throw PermanentFault(
        "sandbox worker died with unrecognized wait status while "
        "simulating " +
        identity);
}

CellResult
ProcWorkerPool::execute(const SimJob &job, const AttemptContext &ctx)
{
    Writer writer;
    makeRequest(job, ctx).serialize(writer);
    const std::string identity = jobIdentity(job);

    std::unique_lock<std::mutex> lock(_mutex);
    Slot *checked_out = nullptr;
    _freeCv.wait(lock, [&] {
        if (_stopping)
            return true;
        for (Slot &slot : _slots) {
            if (!slot.busy && slot.worker.alive()) {
                checked_out = &slot;
                return true;
            }
        }
        return false;
    });
    if (_stopping || checked_out == nullptr)
        throw std::logic_error(
            "ProcWorkerPool::execute during pool shutdown");
    Slot &slot = *checked_out;
    slot.busy = true;
    slot.watchdogKilled = false;
    if (_options.hardDeadline.count() > 0)
        slot.deadline =
            std::chrono::steady_clock::now() + _options.hardDeadline;

    // Dispatch. A request frame is far below the pipe's buffer, so
    // the write never blocks; EPIPE means the worker died idle — an
    // incident of the *worker*, not this job, so respawn and retry.
    for (int dispatch = 0;; ++dispatch) {
        try {
            writeFrame(slot.worker.requestFd, writer.bytes());
            break;
        } catch (const ProtocolError &) {
            int status = 0;
            ::waitpid(slot.worker.pid, &status, 0);
            respawnLocked(slot, describeWaitStatus(status));
            if (dispatch >= 2) {
                slot.busy = false;
                lock.unlock();
                _freeCv.notify_one();
                throw TransientFault(
                    "sandbox workers kept dying before accepting "
                    "job " +
                    identity);
            }
        }
    }

    const int result_fd = slot.worker.resultFd;
    const pid_t pid = slot.worker.pid;
    lock.unlock();

    // Block for the outcome with the lock released: the monitor must
    // be able to SIGKILL this very worker while we sit in read().
    std::vector<std::byte> frame;
    bool answered = false;
    try {
        answered = readFrame(result_fd, frame);
    } catch (const ProtocolError &) {
        answered = false; // torn frame: classify from the wait status
    }

    lock.lock();
    if (answered) {
        ++slot.jobsDone;
        if (slot.watchdogKilled) {
            // The answer raced the watchdog's SIGKILL; honor the
            // result, but the worker is dead — replace it.
            int status = 0;
            ::waitpid(pid, &status, 0);
            respawnLocked(slot, "watchdog-sigkill");
        }
        slot.busy = false;
        lock.unlock();
        _freeCv.notify_one();

        Reader reader(frame);
        return unwrapResult(JobResult::deserialize(reader));
    }

    // EOF without an answer: the worker died mid-attempt. Reap it,
    // refill the pool, then translate the death into the taxonomy.
    const bool watchdog = slot.watchdogKilled;
    int status = 0;
    ::waitpid(pid, &status, 0);
    respawnLocked(slot,
                  watchdog ? "watchdog-sigkill"
                           : describeWaitStatus(status));
    slot.busy = false;
    _freeCv.notify_one();
    throwClassifiedLocked(status, watchdog, identity);
}

void
ProcWorkerPool::monitorLoop()
{
    std::unique_lock<std::mutex> lock(_mutex);
    while (!_stopping) {
        _monitorCv.wait_for(lock, _options.heartbeat);
        if (_stopping)
            break;
        const auto now = std::chrono::steady_clock::now();
        for (Slot &slot : _slots) {
            if (!slot.worker.alive())
                continue;
            if (slot.busy) {
                if (_options.hardDeadline.count() > 0 &&
                    !slot.watchdogKilled && now >= slot.deadline) {
                    ::kill(slot.worker.pid, SIGKILL);
                    slot.watchdogKilled = true;
                    _sigkills->add();
                }
                continue;
            }
            // Idle-death heartbeat: a worker that died between jobs
            // (external kill, latent corruption) is reaped and
            // replaced here instead of poisoning the next dispatch.
            int status = 0;
            const pid_t reaped =
                ::waitpid(slot.worker.pid, &status, WNOHANG);
            if (reaped == slot.worker.pid)
                respawnLocked(slot, describeWaitStatus(status));
        }
    }
}

} // namespace rigor::exec::proc
