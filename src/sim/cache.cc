#include "sim/cache.hh"

#include <bit>
#include <stdexcept>

namespace rigor::sim
{

Cache::Cache(std::string name) : _name(std::move(name)) {}

Cache::Cache(std::string name, const CacheGeometry &geometry)
    : Cache(std::move(name))
{
    reconfigure(geometry);
}

void
Cache::reconfigure(const CacheGeometry &geometry)
{
    if ((geometry.numSets() & (geometry.numSets() - 1)) != 0)
        throw std::invalid_argument(
            "Cache: set count must be a power of two");
    _tags.reshape(geometry.numSets(), geometry.effectiveAssoc());
    _geometry = geometry;
    _blockShift = static_cast<std::uint32_t>(
        std::countr_zero(geometry.blockBytes));
    _setMask = geometry.numSets() - 1;
    _stats = CacheStats{};
}

std::uint32_t
Cache::setIndex(std::uint64_t addr) const
{
    return static_cast<std::uint32_t>((addr >> _blockShift) & _setMask);
}

std::uint64_t
Cache::tagOf(std::uint64_t addr) const
{
    return (addr >> _blockShift) >> std::countr_zero(_setMask + 1);
}

bool
Cache::access(std::uint64_t addr)
{
    ++_stats.accesses;
    const std::uint32_t set = setIndex(addr);
    const std::uint64_t tag = tagOf(addr);
    const TagStore::Access result = _tags.access(set, tag);
    if (result.hit)
        return true;

    ++_stats.misses;
    if (result.evicted)
        ++_stats.evictions;
    return false;
}

bool
Cache::contains(std::uint64_t addr) const
{
    return _tags.probe(setIndex(addr), tagOf(addr));
}

void
Cache::reset()
{
    _tags.flush();
    _stats = CacheStats{};
}

} // namespace rigor::sim
