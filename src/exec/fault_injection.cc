#include "exec/fault_injection.hh"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include <csignal>

namespace rigor::exec
{

std::string
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Transient:
        return "transient";
      case FaultKind::Permanent:
        return "permanent";
      case FaultKind::Hang:
        return "hang";
      case FaultKind::Segfault:
        return "segfault";
      case FaultKind::Abort:
        return "abort";
      case FaultKind::BusyLoop:
        return "busy-loop";
      case FaultKind::AllocBomb:
        return "alloc-bomb";
      case FaultKind::KillWorker:
        return "kill";
    }
    return "unknown";
}

void
FaultInjector::addFault(std::size_t jobIndex, unsigned attempt,
                        FaultKind kind)
{
    if (attempt == 0)
        throw std::invalid_argument(
            "FaultInjector::addFault: attempts are 1-based");
    _byIndex[{jobIndex, attempt}] = kind;
}

void
FaultInjector::addLabelFault(std::string labelSubstring,
                             unsigned attempt, FaultKind kind)
{
    if (attempt == 0)
        throw std::invalid_argument(
            "FaultInjector::addLabelFault: attempts are 1-based");
    if (labelSubstring.empty())
        throw std::invalid_argument(
            "FaultInjector::addLabelFault: empty substring would "
            "fault every job");
    _byLabel.push_back(
        {std::move(labelSubstring), attempt, kind});
}

void
FaultInjector::planRandomTransients(std::size_t numJobs,
                                    unsigned attempts,
                                    double transientRate,
                                    std::uint64_t seed)
{
    if (attempts < 2)
        throw std::invalid_argument(
            "FaultInjector::planRandomTransients: a healable plan "
            "needs a policy with at least 2 attempts");
    if (transientRate < 0.0 || transientRate > 1.0)
        throw std::invalid_argument(
            "FaultInjector::planRandomTransients: transientRate must "
            "be in [0, 1]");
    // mt19937_64 + explicit seed: the plan is a pure function of the
    // arguments, so a failing CI run is replayable locally.
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (std::size_t job = 0; job < numJobs; ++job) {
        if (coin(rng) >= transientRate)
            continue;
        // Fault every attempt but the last, so the plan as a whole is
        // survivable under a policy granting `attempts` attempts.
        for (unsigned a = 1; a < attempts; ++a)
            _byIndex[{job, a}] = FaultKind::Transient;
    }
}

void
FaultInjector::raise(FaultKind kind, const SimJob &job,
                     const AttemptContext &ctx) const
{
    switch (kind) {
      case FaultKind::Transient:
        _transientsRaised.fetch_add(1, std::memory_order_relaxed);
        throw TransientFault("injected transient fault (job " +
                             std::to_string(ctx.jobIndex) +
                             ", attempt " +
                             std::to_string(ctx.attempt) + ")");
      case FaultKind::Permanent:
        _permanentsRaised.fetch_add(1, std::memory_order_relaxed);
        throw PermanentFault("injected permanent fault (job " +
                             std::to_string(ctx.jobIndex) +
                             ", attempt " +
                             std::to_string(ctx.attempt) + ")");
      case FaultKind::Hang:
        if (!ctx.hasDeadline())
            throw std::logic_error(
                "FaultInjector: hang injected for job '" + job.label +
                "' but the FaultPolicy sets no attemptDeadline — the "
                "hang would wedge the worker forever");
        _hangsRaised.fetch_add(1, std::memory_order_relaxed);
        // Simulate a wedged run: make no progress until the
        // cooperative watchdog path (checkDeadline) fires.
        for (;;) {
            ctx.checkDeadline();
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
      case FaultKind::Segfault: {
        _processFaultsRaised.fetch_add(1, std::memory_order_relaxed);
        volatile int *null_cell = nullptr;
        *null_cell = 1; // SIGSEGV
        break;
      }
      case FaultKind::Abort:
        _processFaultsRaised.fetch_add(1, std::memory_order_relaxed);
        std::abort();
      case FaultKind::BusyLoop: {
        _processFaultsRaised.fetch_add(1, std::memory_order_relaxed);
        // Deliberately never polls ctx.checkDeadline(): only a hard
        // kill (the process pool's watchdog) can end this. The
        // volatile sink keeps the loop observable — an empty
        // side-effect-free infinite loop is undefined behavior.
        volatile std::uint64_t sink = 0;
        for (;;)
            sink = sink + 1;
      }
      case FaultKind::AllocBomb: {
        _processFaultsRaised.fetch_add(1, std::memory_order_relaxed);
        // Touch every page so the allocation is real, not a lazy
        // mapping the kernel never backs; ends in std::bad_alloc
        // (sandbox RLIMIT_AS) or an OOM kill.
        std::vector<std::unique_ptr<char[]>> hoard;
        constexpr std::size_t kChunk = 16u * 1024 * 1024;
        for (;;) {
            hoard.push_back(std::make_unique<char[]>(kChunk));
            char *chunk = hoard.back().get();
            for (std::size_t at = 0; at < kChunk; at += 4096)
                chunk[at] = static_cast<char>(at);
        }
      }
      case FaultKind::KillWorker:
        _processFaultsRaised.fetch_add(1, std::memory_order_relaxed);
        ::raise(SIGKILL);
        break;
    }
}

SimulateFn
FaultInjector::wrap(SimulateFn inner) const
{
    if (!inner)
        inner = [](const SimJob &job, const AttemptContext &ctx) {
            return SimulationEngine::simulateJob(job, ctx);
        };
    return [this, inner = std::move(inner)](
               const SimJob &job, const AttemptContext &ctx) {
        const auto it = _byIndex.find({ctx.jobIndex, ctx.attempt});
        if (it != _byIndex.end())
            raise(it->second, job, ctx);
        for (const LabelFault &fault : _byLabel) {
            if (fault.attempt == ctx.attempt &&
                job.label.find(fault.substring) != std::string::npos)
                raise(fault.kind, job, ctx);
        }
        return inner(job, ctx);
    };
}

} // namespace rigor::exec
