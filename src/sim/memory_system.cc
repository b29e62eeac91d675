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
    _dtlb.reconfigure(config.dtlb);
    _nextLinePrefetch = config.l1iNextLinePrefetch;
    _memLatencyFirst = config.memLatencyFirst;
    _memLatencyFollowing = config.memLatencyFollowing();
    _chunksPerBlock =
        std::max(1u, config.l2.blockBytes / config.memBandwidthBytes);
    _memFreeCycle = 0;
    _stats = MemorySystemStats{};
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

std::uint64_t
MemorySystem::instructionFetch(std::uint64_t cycle, std::uint64_t pc)
{
    ++_stats.instructionFetches;
    std::uint64_t latency = _itlb.access(pc);
    latency += _l1i.latency();
    if (!_l1i.access(pc))
        latency += accessL2(cycle + latency, pc);

    if (_nextLinePrefetch) {
        // Pull the next block toward L1I in the background: the fetch
        // in flight does not wait, but an L2 miss still occupies the
        // memory channel (prefetches are not free bandwidth).
        const std::uint64_t next =
            (pc | (_l1i.geometry().blockBytes - 1)) + 1;
        if (!_l1i.contains(next)) {
            ++_stats.instructionPrefetches;
            _l1i.access(next);
            if (!_l2.access(next)) {
                ++_stats.memoryTransfers;
                const std::uint64_t start = std::max(
                    cycle + latency, _memFreeCycle);
                _memFreeCycle = start + memoryChannelOccupancy();
            }
        }
    }
    return latency;
}

std::uint64_t
MemorySystem::dataAccess(std::uint64_t cycle, std::uint64_t addr,
                         bool is_store)
{
    (void)is_store; // same timing path; the core buffers stores
    ++_stats.dataAccesses;
    std::uint64_t latency = _dtlb.access(addr);
    latency += _l1d.latency();
    if (!_l1d.access(addr))
        latency += accessL2(cycle + latency, addr);
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
    if (_nextLinePrefetch) {
        const std::uint64_t next =
            (pc | (_l1i.geometry().blockBytes - 1)) + 1;
        if (!_l1i.contains(next)) {
            ++_stats.instructionPrefetches;
            _l1i.access(next);
            if (!_l2.access(next))
                ++_stats.memoryTransfers;
        }
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
