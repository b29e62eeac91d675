#include "sim/func_unit.hh"

#include <algorithm>
#include <stdexcept>

namespace rigor::sim
{

FuPool::FuPool(std::string name, std::uint32_t units,
               std::uint32_t latency, std::uint32_t interval)
    : _name(std::move(name))
{
    reconfigure(units, latency, interval);
}

void
FuPool::reconfigure(std::uint32_t units, std::uint32_t latency,
                    std::uint32_t interval)
{
    if (units == 0)
        throw std::invalid_argument("FuPool: need at least one unit");
    if (latency == 0 || interval == 0)
        throw std::invalid_argument(
            "FuPool: latency and interval must be non-zero");
    _latency = latency;
    _interval = interval;
    _freeAt.assign(units, 0);
    _stats = FuPoolStats{};
}

std::uint64_t
FuPool::earliestStart(std::uint64_t ready_cycle) const
{
    std::uint64_t best = _freeAt[0];
    for (std::uint64_t f : _freeAt)
        best = std::min(best, f);
    return std::max(ready_cycle, best);
}

std::uint64_t
FuPool::reserve(std::uint64_t ready_cycle)
{
    return reserveFor(ready_cycle, _interval);
}

std::uint64_t
FuPool::reserveFor(std::uint64_t ready_cycle, std::uint32_t interval)
{
    if (interval == 0)
        throw std::invalid_argument(
            "FuPool::reserveFor: interval must be non-zero");

    // Pick the unit that frees earliest.
    std::size_t best = 0;
    for (std::size_t u = 1; u < _freeAt.size(); ++u)
        if (_freeAt[u] < _freeAt[best])
            best = u;

    const std::uint64_t start = std::max(ready_cycle, _freeAt[best]);
    ++_stats.operations;
    _stats.busyStallCycles += start - ready_cycle;
    _freeAt[best] = start + interval;
    return start;
}

void
FuPool::reset()
{
    std::fill(_freeAt.begin(), _freeAt.end(), 0);
    _stats = FuPoolStats{};
}

} // namespace rigor::sim
