#include "sim/memory_system.hh"

#include <algorithm>

namespace rigor::sim
{

MemorySystem::MemorySystem(const ProcessorConfig &config)
{
    reconfigure(config);
}

void
MemorySystem::reconfigure(const ProcessorConfig &config)
{
    _l1i.reconfigure(config.l1i);
    _l1d.reconfigure(config.l1d);
    _l2.reconfigure(config.l2);
    _itlb.reconfigure(config.itlb);
    _dtlb.reconfigure(config.dtlb());
    _memLatencyFirst = config.memLatencyFirst;
    _memLatencyFollowing = config.memLatencyFollowing();
    _chunksPerBlock =
        std::max(1u, config.l2.blockBytes / config.memBandwidthBytes);
    _memFreeCycle = 0;
    _stats = MemorySystemStats{};
}

void
MemorySystem::replay(const L1Tracks &tracks)
{
    if (tracks.l1i)
        _l1i.replay(*tracks.l1i);
    if (tracks.itlb)
        _itlb.replay(*tracks.itlb);
    if (tracks.l1d)
        _l1d.replay(*tracks.l1d);
    if (tracks.dtlb)
        _dtlb.replay(*tracks.dtlb);
}

std::uint64_t
MemorySystem::memoryTransferCycles() const
{
    return _memLatencyFirst +
           static_cast<std::uint64_t>(_chunksPerBlock - 1) *
               _memLatencyFollowing;
}

std::uint64_t
MemorySystem::memoryChannelOccupancy() const
{
    return 1 + static_cast<std::uint64_t>(_chunksPerBlock - 1) *
                   _memLatencyFollowing;
}

std::uint64_t
MemorySystem::accessL2(std::uint64_t cycle, std::uint64_t addr)
{
    ++_stats.l2Accesses;
    std::uint64_t latency = _l2.latency();
    if (!_l2.access(addr)) {
        // First-block latency overlaps across outstanding misses
        // (banked DRAM); only the data beats hold the channel.
        ++_stats.memoryTransfers;
        const std::uint64_t request = cycle + latency;
        const std::uint64_t start = std::max(request, _memFreeCycle);
        _stats.busQueueCycles += start - request;
        _memFreeCycle = start + memoryChannelOccupancy();
        latency += (start - request) + memoryTransferCycles();
    }
    return latency;
}

void
MemorySystem::warmInstructionFetch(std::uint64_t pc)
{
    ++_stats.instructionFetches;
    _itlb.access(pc);
    if (!_l1i.access(pc)) {
        ++_stats.l2Accesses;
        if (!_l2.access(pc))
            ++_stats.memoryTransfers;
    }
}

void
MemorySystem::warmDataAccess(std::uint64_t addr)
{
    ++_stats.dataAccesses;
    _dtlb.access(addr);
    if (!_l1d.access(addr)) {
        ++_stats.l2Accesses;
        if (!_l2.access(addr))
            ++_stats.memoryTransfers;
    }
}

} // namespace rigor::sim
