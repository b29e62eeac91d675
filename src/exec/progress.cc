#include "exec/progress.hh"

#include <sstream>

namespace rigor::exec
{

std::string
ProgressSnapshot::toString() const
{
    std::ostringstream os;
    os << runsCompleted << "/" << runsTotal << " runs, " << cacheHits
       << " cache hits, ";
    if (journalHits != 0)
        os << journalHits << " journal replays, ";
    if (retries != 0)
        os << retries << " retries, ";
    if (failedJobs != 0)
        os << failedJobs << " failed, ";
    os << simulatedInstructions << " instructions simulated, "
       << wallSeconds << " s wall";
    return os.str();
}

ProgressSnapshot
ProgressSnapshot::since(const ProgressSnapshot &before) const
{
    ProgressSnapshot d;
    d.runsTotal = runsTotal - before.runsTotal;
    d.runsCompleted = runsCompleted - before.runsCompleted;
    d.cacheHits = cacheHits - before.cacheHits;
    d.journalHits = journalHits - before.journalHits;
    d.retries = retries - before.retries;
    d.failedJobs = failedJobs - before.failedJobs;
    d.simulatedInstructions =
        simulatedInstructions - before.simulatedInstructions;
    d.wallSeconds = wallSeconds - before.wallSeconds;
    return d;
}

ProgressSnapshot
ProgressReporter::snapshot() const
{
    ProgressSnapshot s;
    s.runsTotal = _runsTotal.load(std::memory_order_relaxed);
    s.runsCompleted = _runsCompleted.load(std::memory_order_relaxed);
    s.cacheHits = _cacheHits.load(std::memory_order_relaxed);
    s.journalHits = _journalHits.load(std::memory_order_relaxed);
    s.retries = _retries.load(std::memory_order_relaxed);
    s.failedJobs = _failedJobs.load(std::memory_order_relaxed);
    s.simulatedInstructions =
        _simulatedInstructions.load(std::memory_order_relaxed);
    s.wallSeconds =
        static_cast<double>(
            _wallNanos.load(std::memory_order_relaxed)) *
        1e-9;
    return s;
}

} // namespace rigor::exec
