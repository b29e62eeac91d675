#include "sim/block_lookup.hh"

#include <bit>

namespace rigor::sim
{

void
BlockLookup::reshape(std::uint32_t num_sets, std::uint32_t assoc,
                     std::uint32_t block_shift)
{
    _tags.reshape(num_sets, assoc);
    _blockShift = block_shift;
    _setBits = static_cast<std::uint32_t>(std::countr_zero(num_sets));
    _setMask = num_sets - 1;
    flush();
}

void
BlockLookup::flush()
{
    _tags.flush();
    _haveLast = false;
    _track = nullptr;
    _trackPos = 0;
}

Outcome
BlockLookup::lookup(std::uint64_t block)
{
    const TagStore::Access result = _tags.access(
        static_cast<std::uint32_t>(block & _setMask), block >> _setBits);
    return {result.hit, result.evicted};
}

} // namespace rigor::sim
