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
    _lookup.reshape(geometry.numSets(), geometry.effectiveAssoc(),
                    static_cast<std::uint32_t>(
                        std::countr_zero(geometry.pageBytes)));
    _geometry = geometry;
    _stats = TlbStats{};
}

void
Tlb::reset()
{
    _lookup.flush();
    _stats = TlbStats{};
}

} // namespace rigor::sim
