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
    _chosen = 0;
    _stats = FuPoolStats{};
}

void
FuPool::reset()
{
    std::fill(_freeAt.begin(), _freeAt.end(), 0);
    _chosen = 0;
    _stats = FuPoolStats{};
}

} // namespace rigor::sim
