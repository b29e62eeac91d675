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

bool
TagStore::lookup(std::uint32_t set, std::uint64_t tag,
                 std::uint64_t *payload_out)
{
    const std::size_t base = setBase(set);
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        Way &way = _ways[base + w];
        if (way.tag == tag && valid(way)) {
            way.stamp = ++_tick;
            if (payload_out)
                *payload_out = _withPayload ? _payloads[base + w] : 0;
            return true;
        }
    }
    return false;
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

std::uint32_t
TagStore::victimWay(std::size_t base) const
{
    const Way *ways = &_ways[base];
    // Invalid ways first.
    for (std::uint32_t w = 0; w < _assoc; ++w)
        if (!valid(ways[w]))
            return w;

    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < _assoc; ++w)
        if (ways[w].stamp < ways[victim].stamp)
            victim = w;
    return victim;
}

bool
TagStore::insert(std::uint32_t set, std::uint64_t tag,
                 std::uint64_t payload)
{
    const std::size_t base = setBase(set);

    // Refill of an already-present tag just refreshes the payload.
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        Way &way = _ways[base + w];
        if (way.tag == tag && valid(way)) {
            way.stamp = ++_tick;
            if (_withPayload)
                _payloads[base + w] = payload;
            return false;
        }
    }

    const std::size_t slot = base + victimWay(base);
    const bool evicted = valid(_ways[slot]);
    _ways[slot] = Way{tag, ++_tick};
    if (_withPayload)
        _payloads[slot] = payload;
    return evicted;
}

void
TagStore::flush()
{
    _flushTick = _tick;
}

} // namespace rigor::sim
