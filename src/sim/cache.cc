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
    _lookup.reshape(geometry.numSets(), geometry.effectiveAssoc(),
                    static_cast<std::uint32_t>(
                        std::countr_zero(geometry.blockBytes)));
    _geometry = geometry;
    _stats = CacheStats{};
}

void
Cache::reset()
{
    _lookup.flush();
    _stats = CacheStats{};
}

} // namespace rigor::sim
