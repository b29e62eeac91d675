#include "sim/replacement.hh"

#include <stdexcept>

namespace rigor::sim
{

TagStore::TagStore(bool with_payload) : _withPayload(with_payload) {}

TagStore::TagStore(std::uint32_t num_sets, std::uint32_t assoc,
                   bool with_payload)
    : _withPayload(with_payload)
{
    reshape(num_sets, assoc);
}

void
TagStore::reshape(std::uint32_t num_sets, std::uint32_t assoc)
{
    if (num_sets == 0 || assoc == 0)
        throw std::invalid_argument(
            "TagStore: sets and associativity must be non-zero");
    const std::size_t ways = static_cast<std::size_t>(num_sets) * assoc;
    if (ways > _ways.size()) {
        // Exact-size buffers: every way of a new buffer reads as
        // invalid (stamp 0), so nothing needs copying.
        _ways = std::vector<Way>(ways);
        if (_withPayload)
            _payloads = std::vector<std::uint64_t>(ways);
    }
    _numSets = num_sets;
    _assoc = assoc;
    flush();
}

std::size_t
TagStore::setBase(std::uint32_t set) const
{
    if (set >= _numSets)
        throw std::out_of_range("TagStore: set index out of range");
    return static_cast<std::size_t>(set) * _assoc;
}

TagStore::Access
TagStore::access(std::uint32_t set, std::uint64_t tag,
                 std::uint64_t payload)
{
    const std::size_t base = setBase(set);
    Way *ways = &_ways[base];

    // An invalid way ranks 0, below every valid stamp, so the first
    // way of least rank is the first invalid one if any, else the
    // first least recently used.
    std::uint32_t victim = 0;
    std::uint64_t victim_rank = ~std::uint64_t{0};
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        const bool live = valid(ways[w]);
        if (live && ways[w].tag == tag) {
            ways[w].stamp = ++_tick;
            Access hit{true, false, 0};
            if (_withPayload) {
                hit.payload = _payloads[base + w];
                _payloads[base + w] = payload;
            }
            return hit;
        }
        const std::uint64_t rank = live ? ways[w].stamp : 0;
        if (rank < victim_rank) {
            victim_rank = rank;
            victim = w;
        }
    }

    const bool evicted = valid(ways[victim]);
    ways[victim] = Way{tag, ++_tick};
    if (_withPayload)
        _payloads[base + victim] = payload;
    return {false, evicted, 0};
}

bool
TagStore::probe(std::uint32_t set, std::uint64_t tag) const
{
    const std::size_t base = setBase(set);
    for (std::uint32_t w = 0; w < _assoc; ++w)
        if (_ways[base + w].tag == tag && valid(_ways[base + w]))
            return true;
    return false;
}

void
TagStore::flush()
{
    _flushTick = _tick;
}

} // namespace rigor::sim
