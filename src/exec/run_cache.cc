#include "exec/run_cache.hh"

#include <functional>
#include <sstream>

namespace rigor::exec
{

std::size_t
RunKey::hash() const
{
    std::size_t seed = config.hash();
    const auto mix = [&seed](std::size_t h) {
        seed ^= h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
    };
    mix(std::hash<std::string>{}(workload));
    mix(std::hash<std::uint64_t>{}(instructions));
    mix(std::hash<std::uint64_t>{}(warmupInstructions));
    mix(std::hash<std::string>{}(hookId));
    mix(std::hash<std::string>{}(samplingId));
    return seed;
}

std::string
RunKey::toString() const
{
    std::ostringstream os;
    os << std::hex << config.hash() << std::dec << '|' << instructions
       << '|' << warmupInstructions << '|' << workload << '|'
       << hookId;
    // Appended only for sampled runs so full-run keys (and existing
    // journals of them) keep their historical shape.
    if (!samplingId.empty())
        os << '|' << samplingId;
    return os.str();
}

std::optional<CellResult>
RunCache::lookup(const RunKey &key) const
{
    const std::scoped_lock lock(_mutex);
    const auto it = _entries.find(key);
    if (it == _entries.end())
        return std::nullopt;
    return it->second;
}

void
RunCache::store(const RunKey &key, CellResult result)
{
    result.host.clear(); // a replayed cell reports no host
    const std::scoped_lock lock(_mutex);
    _entries.try_emplace(key, std::move(result));
}

std::size_t
RunCache::size() const
{
    const std::scoped_lock lock(_mutex);
    return _entries.size();
}

} // namespace rigor::exec
