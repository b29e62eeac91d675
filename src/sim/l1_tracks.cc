#include "sim/l1_tracks.hh"

#include <algorithm>
#include <ranges>

#include "sim/cache.hh"
#include "sim/tlb.hh"

namespace rigor::sim
{

namespace
{

/** @p geometry without its latency: the part a track depends on. */
CacheGeometry
keyOf(CacheGeometry geometry)
{
    geometry.latency = 0;
    return geometry;
}

TlbGeometry
keyOf(TlbGeometry geometry)
{
    geometry.missLatency = 0;
    return geometry;
}

/** The track of @p geometry in @p tracks; a missing one is recorded
 *  by a fresh Structure over @p addrs. */
template <class Structure, class Geometry, class Addresses>
const OutcomeTrack &
trackOf(std::deque<std::pair<Geometry, OutcomeTrack>> &tracks,
        const Geometry &geometry, Addresses &&addrs)
{
    const Geometry key = keyOf(geometry);
    const auto found =
        std::find_if(tracks.begin(), tracks.end(),
                     [&](const auto &entry) { return entry.first == key; });
    if (found != tracks.end())
        return found->second;
    return tracks.emplace_back(key, Structure::record(key, addrs)).second;
}

} // namespace

L1Tracks
StreamTracks::tracksFor(const ProcessorConfig &config,
                        std::span<const trace::Instruction> stream)
{
    auto pcs = stream | std::views::transform(&trace::Instruction::pc);
    auto data = stream |
                std::views::filter([](const trace::Instruction &inst) {
                    return trace::isMemOp(inst.op);
                }) |
                std::views::transform(&trace::Instruction::memAddr);

    L1Tracks tracks;
    tracks.l1i = &trackOf<Cache>(_l1i, config.l1i, pcs);
    if (config.l1i.blockBytes <= config.itlb.pageBytes)
        tracks.itlb = &trackOf<Tlb>(_itlb, config.itlb, pcs);
    tracks.l1d = &trackOf<Cache>(_l1d, config.l1d, data);
    tracks.dtlb = &trackOf<Tlb>(_dtlb, config.dtlb(), data);
    return tracks;
}

void
StreamTracks::clear()
{
    _l1i.clear();
    _itlb.clear();
    _l1d.clear();
    _dtlb.clear();
}

} // namespace rigor::sim
