#include "exec/proc/sandbox_worker.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include "exec/fault_policy.hh"

namespace rigor::exec::proc
{

namespace
{

/**
 * Close every inherited descriptor except stdio and the child's own
 * two pipe ends. Scans /proc/self/fd; the scan's own directory fd is
 * skipped and closed by closedir. Without this sweep a child forked
 * while siblings exist keeps their result-pipe write ends (and the
 * journal fd, trace files, ...) open, so a sibling crash would never
 * surface as EOF in the parent.
 */
void
closeInheritedFds(int keep_a, int keep_b)
{
    DIR *dir = ::opendir("/proc/self/fd");
    if (dir == nullptr)
        return; // best effort; /proc is always there on target hosts
    const int dir_fd = ::dirfd(dir);
    while (const dirent *entry = ::readdir(dir)) {
        char *end = nullptr;
        const long fd = std::strtol(entry->d_name, &end, 10);
        if (end == entry->d_name || *end != '\0')
            continue;
        if (fd <= 2 || fd == dir_fd || fd == keep_a || fd == keep_b)
            continue;
        ::close(static_cast<int>(fd));
    }
    ::closedir(dir);
}

void
applyLimit(int resource, std::uint64_t value)
{
    rlimit limit;
    limit.rlim_cur = static_cast<rlim_t>(value);
    limit.rlim_max = static_cast<rlim_t>(value);
    ::setrlimit(resource, &limit); // best effort: a denied cap only
                                   // loses the sandbox's backstop
}

void
applyLimits(const SandboxContext &context)
{
    if (context.memLimitMb > 0)
        applyLimit(RLIMIT_AS, context.memLimitMb * 1024 * 1024);
    if (context.cpuLimitSeconds > 0)
        applyLimit(RLIMIT_CPU, context.cpuLimitSeconds);
}

} // namespace

JobRequest
makeRequest(const SimJob &job, const AttemptContext &ctx)
{
    if (job.workload == nullptr)
        throw PermanentFault("job '" + job.label +
                             "' carries no workload");
    JobRequest request;
    request.profile = *job.workload;
    request.config = job.config;
    request.instructions = job.instructions;
    request.warmupInstructions = job.warmupInstructions;
    request.hasHook = static_cast<bool>(job.makeHook);
    request.label = job.label;
    request.jobIndex = ctx.jobIndex;
    request.attempt = ctx.attempt;
    request.deadlineBudget = ctx.deadlineBudget;
    request.sampling = job.sampling;
    return request;
}

JobResult
runRequest(const JobRequest &request, const SimulateFn &simulate,
           const SandboxHookFactory &hookFactory)
{
    JobResult result;
    const auto start = std::chrono::steady_clock::now();
    try {
        SimJob job;
        job.workload = &request.profile;
        job.config = request.config;
        job.instructions = request.instructions;
        job.warmupInstructions = request.warmupInstructions;
        job.sampling = request.sampling;
        job.label = !request.label.empty() ? request.label
                                           : request.profile.name;
        if (request.hasHook) {
            if (!hookFactory)
                throw PermanentFault(
                    "no hook factory to rebuild the enhancement hook "
                    "of job '" +
                    job.label + "'");
            job.makeHook = [&hookFactory, &request] {
                return hookFactory(request.profile);
            };
        }

        AttemptContext ctx;
        ctx.jobIndex = static_cast<std::size_t>(request.jobIndex);
        ctx.attempt = request.attempt;
        ctx.deadlineBudget = request.deadlineBudget;
        if (ctx.hasDeadline())
            ctx.deadline = start + request.deadlineBudget;

        const CellResult cell = simulate
                                    ? simulate(job, ctx)
                                    : SimulationEngine::simulateJob(job, ctx);
        result.status = ResultStatus::Ok;
        result.cycles = cell.cycles;
        result.sample = cell.sample;
    } catch (const TransientFault &e) {
        result.status = ResultStatus::Transient;
        result.message = e.what();
    } catch (const DeadlineExceeded &e) {
        result.status = ResultStatus::Deadline;
        result.message = e.what();
    } catch (const ResourceExhausted &e) {
        result.status = ResultStatus::Resource;
        result.message = e.what();
    } catch (const std::exception &e) {
        result.status = ResultStatus::Permanent;
        result.message = e.what();
    }
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    return result;
}

CellResult
unwrapResult(const JobResult &result)
{
    switch (result.status) {
      case ResultStatus::Ok: {
        CellResult cell(result.cycles);
        cell.sample = result.sample;
        return cell;
      }
      case ResultStatus::Transient:
        throw TransientFault(result.message);
      case ResultStatus::Deadline:
        throw DeadlineExceeded(result.message);
      case ResultStatus::Resource:
        throw ResourceExhausted(result.message);
      case ResultStatus::Permanent:
        break;
    }
    throw PermanentFault(result.message);
}

int
runSandboxChild(int request_fd, int result_fd,
                const SandboxContext &context)
{
    // The memory cap is exhausted: composing a result message could
    // throw again, so report through the exit code instead.
    const SimulateFn simulate = [&context](const SimJob &job,
                                           const AttemptContext &ctx) {
        try {
            return context.simulate
                       ? context.simulate(job, ctx)
                       : SimulationEngine::simulateJob(job, ctx);
        } catch (const std::bad_alloc &) {
            std::_Exit(kExitOom);
        }
    };

    std::vector<std::byte> frame;
    for (;;) {
        try {
            if (!readFrame(request_fd, frame))
                return 0; // parent closed the request pipe: shutdown
        } catch (const ProtocolError &) {
            return 1;
        }

        Reader reader(frame);
        const JobResult result =
            runRequest(JobRequest::deserialize(reader), simulate,
                       context.hookFactory);

        Writer writer;
        result.serialize(writer);
        try {
            writeFrame(result_fd, writer.bytes());
        } catch (const ProtocolError &) {
            return 1; // parent is gone; nothing left to report to
        }
    }
}

SandboxWorker
spawnSandboxWorker(const SandboxContext &context)
{
    int request_pipe[2];
    int result_pipe[2];
    if (::pipe(request_pipe) != 0)
        throw std::runtime_error(
            std::string("sandbox request pipe: ") +
            std::strerror(errno));
    if (::pipe(result_pipe) != 0) {
        ::close(request_pipe[0]);
        ::close(request_pipe[1]);
        throw std::runtime_error(
            std::string("sandbox result pipe: ") +
            std::strerror(errno));
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(request_pipe[0]);
        ::close(request_pipe[1]);
        ::close(result_pipe[0]);
        ::close(result_pipe[1]);
        throw std::runtime_error(std::string("sandbox fork: ") +
                                 std::strerror(errno));
    }

    if (pid == 0) {
        ::close(request_pipe[1]);
        ::close(result_pipe[0]);
        closeInheritedFds(request_pipe[0], result_pipe[1]);
        applyLimits(context);
        const int rc =
            runSandboxChild(request_pipe[0], result_pipe[1], context);
        std::_Exit(rc);
    }

    ::close(request_pipe[0]);
    ::close(result_pipe[1]);
    SandboxWorker worker;
    worker.pid = pid;
    worker.requestFd = request_pipe[1];
    worker.resultFd = result_pipe[0];
    return worker;
}

void
closeWorkerPipes(SandboxWorker &worker)
{
    if (worker.requestFd >= 0) {
        ::close(worker.requestFd);
        worker.requestFd = -1;
    }
    if (worker.resultFd >= 0) {
        ::close(worker.resultFd);
        worker.resultFd = -1;
    }
}

} // namespace rigor::exec::proc
