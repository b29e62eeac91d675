#include "sim/tlb.hh"

#include <bit>
#include <stdexcept>

namespace rigor::sim
{

Tlb::Tlb(std::string name) : _name(std::move(name)) {}

Tlb::Tlb(std::string name, const TlbGeometry &geometry)
    : Tlb(std::move(name))
{
    reconfigure(geometry);
}

void
Tlb::reconfigure(const TlbGeometry &geometry)
{
    if ((geometry.numSets() & (geometry.numSets() - 1)) != 0)
        throw std::invalid_argument(
            "Tlb: set count must be a power of two");
    _tags.reshape(geometry.numSets(), geometry.effectiveAssoc());
    _geometry = geometry;
    _pageShift = static_cast<std::uint32_t>(
        std::countr_zero(geometry.pageBytes));
    _setMask = geometry.numSets() - 1;
    _stats = TlbStats{};
}

std::uint32_t
Tlb::access(std::uint64_t addr)
{
    ++_stats.accesses;
    const std::uint64_t vpn = addr >> _pageShift;
    const auto set = static_cast<std::uint32_t>(vpn & _setMask);
    const std::uint64_t tag = vpn >> std::countr_zero(_setMask + 1);
    if (_tags.access(set, tag).hit)
        return 0;

    ++_stats.misses;
    return _geometry.missLatency;
}

void
Tlb::reset()
{
    _tags.flush();
    _stats = TlbStats{};
}

} // namespace rigor::sim
