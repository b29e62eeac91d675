#include "sim/btb.hh"

#include <bit>
#include <stdexcept>

namespace rigor::sim
{

namespace
{

std::uint32_t
resolveSets(std::uint32_t entries, std::uint32_t assoc)
{
    if (entries == 0 || (entries & (entries - 1)) != 0)
        throw std::invalid_argument(
            "Btb: entries must be a non-zero power of two");
    const std::uint32_t ways = assoc == 0 ? entries : assoc;
    if (entries % ways != 0)
        throw std::invalid_argument(
            "Btb: associativity must divide the entry count");
    return entries / ways;
}

} // namespace

Btb::Btb(std::uint32_t entries, std::uint32_t assoc)
{
    reconfigure(entries, assoc);
}

void
Btb::reconfigure(std::uint32_t entries, std::uint32_t assoc)
{
    const std::uint32_t sets = resolveSets(entries, assoc);
    _tags.reshape(sets, assoc == 0 ? entries : assoc);
    _setMask = sets - 1;
    _setShift = static_cast<std::uint32_t>(std::countr_zero(sets));
    _stats = BtbStats{};
}

bool
Btb::access(std::uint64_t pc, std::uint64_t target)
{
    ++_stats.lookups;
    const std::uint64_t word = pc >> 2;
    const auto set = static_cast<std::uint32_t>(word & _setMask);
    const TagStore::Access result =
        _tags.access(set, word >> _setShift, target);
    if (!result.hit)
        ++_stats.misses;
    return result.hit && result.payload == target;
}

} // namespace rigor::sim
