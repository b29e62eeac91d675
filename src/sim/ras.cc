#include "sim/ras.hh"

#include <algorithm>
#include <stdexcept>

namespace rigor::sim
{

ReturnAddressStack::ReturnAddressStack(std::uint32_t entries)
{
    reconfigure(entries);
}

void
ReturnAddressStack::reconfigure(std::uint32_t entries)
{
    if (entries == 0)
        throw std::invalid_argument(
            "ReturnAddressStack: need at least one entry");
    _entries.assign(entries, 0);
    _top = 0;
    _depth = 0;
    _stats = RasStats{};
}

void
ReturnAddressStack::push(std::uint64_t return_pc)
{
    ++_stats.pushes;
    _entries[_top] = return_pc;
    _top = (_top + 1) % capacity();
    if (_depth == capacity())
        ++_stats.overflows; // oldest entry silently lost
    else
        ++_depth;
}

std::optional<std::uint64_t>
ReturnAddressStack::pop()
{
    ++_stats.pops;
    if (_depth == 0) {
        ++_stats.underflows;
        return std::nullopt;
    }
    _top = (_top + capacity() - 1) % capacity();
    --_depth;
    return _entries[_top];
}

} // namespace rigor::sim
