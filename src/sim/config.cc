#include "sim/config.hh"

#include <bit>
#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace rigor::sim
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Boost-style hash mixing. */
void
hashCombine(std::size_t &seed, std::uint64_t value)
{
    seed ^= std::hash<std::uint64_t>{}(value) + 0x9e3779b97f4a7c15ULL +
            (seed << 6) + (seed >> 2);
}

void
hashCombine(std::size_t &seed, const CacheGeometry &g)
{
    hashCombine(seed, g.sizeBytes);
    hashCombine(seed, g.assoc);
    hashCombine(seed, g.blockBytes);
    // Where the removed replacement-policy field (always LRU = 0) was
    // mixed; keeps every run key and journal record unchanged.
    hashCombine(seed, 0);
    hashCombine(seed, g.latency);
}

void
hashCombine(std::size_t &seed, const TlbGeometry &g)
{
    hashCombine(seed, g.entries);
    hashCombine(seed, g.pageBytes);
    hashCombine(seed, g.assoc);
    hashCombine(seed, g.missLatency);
}

void
validateCache(const char *name, const CacheGeometry &g)
{
    const std::string prefix = std::string(name) + ": ";
    if (g.sizeBytes == 0 || g.blockBytes == 0)
        throw std::invalid_argument(prefix + "zero size or block");
    if (!isPow2(g.sizeBytes) || !isPow2(g.blockBytes))
        throw std::invalid_argument(
            prefix + "size and block must be powers of two");
    if (g.blockBytes > g.sizeBytes)
        throw std::invalid_argument(prefix + "block larger than cache");
    const std::uint32_t blocks = g.numBlocks();
    const std::uint32_t ways = g.effectiveAssoc();
    if (ways == 0 || blocks % ways != 0)
        throw std::invalid_argument(
            prefix + "associativity must divide the block count");
    if (!isPow2(g.numSets()))
        throw std::invalid_argument(
            prefix + "set count must be a power of two");
    if (g.latency == 0)
        throw std::invalid_argument(prefix + "zero latency");
}

void
validateTlb(const char *name, const TlbGeometry &g)
{
    const std::string prefix = std::string(name) + ": ";
    if (g.entries == 0)
        throw std::invalid_argument(prefix + "zero entries");
    if (!isPow2(g.pageBytes))
        throw std::invalid_argument(
            prefix + "page size must be a power of two");
    const std::uint32_t ways = g.effectiveAssoc();
    if (ways == 0 || g.entries % ways != 0)
        throw std::invalid_argument(
            prefix + "associativity must divide the entry count");
    if (!isPow2(g.numSets()))
        throw std::invalid_argument(
            prefix + "set count must be a power of two");
}

} // namespace

std::uint32_t
ProcessorConfig::lsqEntries() const
{
    const double raw = lsqRatio * static_cast<double>(robEntries);
    const auto entries = static_cast<std::uint32_t>(std::lround(raw));
    return entries == 0 ? 1 : entries;
}

std::uint32_t
ProcessorConfig::memLatencyFollowing() const
{
    const auto lat = static_cast<std::uint32_t>(
        std::lround(0.02 * static_cast<double>(memLatencyFirst)));
    return lat == 0 ? 1 : lat;
}

void
ProcessorConfig::validate() const
{
    if (machineWidth == 0)
        throw std::invalid_argument("machineWidth must be non-zero");
    if (ifqEntries == 0)
        throw std::invalid_argument("ifqEntries must be non-zero");
    if (robEntries == 0)
        throw std::invalid_argument("robEntries must be non-zero");
    if (lsqRatio <= 0.0 || lsqRatio > 1.0)
        throw std::invalid_argument("lsqRatio must be in (0, 1]");
    if (memPorts == 0)
        throw std::invalid_argument("memPorts must be non-zero");
    if (bpred != BranchPredictorKind::TwoLevel &&
        bpred != BranchPredictorKind::Perfect)
        throw std::invalid_argument(
            "bpred must be 2-Level or Perfect (got " +
            std::to_string(static_cast<int>(bpred)) + ")");
    if (specBranchUpdate != BranchUpdateTiming::InCommit &&
        specBranchUpdate != BranchUpdateTiming::InDecode)
        throw std::invalid_argument(
            "specBranchUpdate must be In Commit or In Decode (got " +
            std::to_string(static_cast<int>(specBranchUpdate)) + ")");
    // The core's slot allocators count bookings per cycle in 8 bits.
    if (machineWidth > 255 || memPorts > 255)
        throw std::invalid_argument(
            "machineWidth and memPorts must be at most 255");
    if (rasEntries == 0)
        throw std::invalid_argument("rasEntries must be non-zero");
    if (btbEntries == 0 || !isPow2(btbEntries))
        throw std::invalid_argument(
            "btbEntries must be a non-zero power of two");
    if (btbAssoc != 0 && btbEntries % btbAssoc != 0)
        throw std::invalid_argument(
            "btbAssoc must divide btbEntries");

    if (intAlus == 0 || fpAlus == 0 || intMultDivUnits == 0 ||
        fpMultDivUnits == 0)
        throw std::invalid_argument(
            "functional unit counts must be non-zero");
    if (intAluLatency == 0 || fpAluLatency == 0 || intMultLatency == 0 ||
        intDivLatency == 0 || fpMultLatency == 0 || fpDivLatency == 0 ||
        fpSqrtLatency == 0)
        throw std::invalid_argument(
            "functional unit latencies must be non-zero");
    if (intAluThroughput == 0 || fpAluThroughput == 0 ||
        intMultThroughput == 0)
        throw std::invalid_argument(
            "functional unit throughputs must be non-zero");

    validateCache("l1i", l1i);
    validateCache("l1d", l1d);
    validateCache("l2", l2);
    if (l2.blockBytes < l1d.blockBytes || l2.blockBytes < l1i.blockBytes)
        throw std::invalid_argument(
            "l2 block must be at least as large as the L1 blocks");
    if (memLatencyFirst == 0)
        throw std::invalid_argument("memLatencyFirst must be non-zero");
    if (memBandwidthBytes == 0 || !isPow2(memBandwidthBytes))
        throw std::invalid_argument(
            "memBandwidthBytes must be a non-zero power of two");
    validateTlb("itlb", itlb);
    validateTlb("dtlb", dtlb);
}

std::size_t
ProcessorConfig::hash() const
{
    std::size_t seed = 0;
    hashCombine(seed, ifqEntries);
    hashCombine(seed, static_cast<std::uint64_t>(bpred));
    hashCombine(seed, bpredPenalty);
    hashCombine(seed, rasEntries);
    hashCombine(seed, btbEntries);
    hashCombine(seed, btbAssoc);
    hashCombine(seed, static_cast<std::uint64_t>(specBranchUpdate));
    hashCombine(seed, machineWidth);
    hashCombine(seed, robEntries);
    hashCombine(seed, std::bit_cast<std::uint64_t>(lsqRatio));
    hashCombine(seed, memPorts);
    hashCombine(seed, intAlus);
    hashCombine(seed, intAluLatency);
    hashCombine(seed, intAluThroughput);
    hashCombine(seed, fpAlus);
    hashCombine(seed, fpAluLatency);
    hashCombine(seed, fpAluThroughput);
    hashCombine(seed, intMultDivUnits);
    hashCombine(seed, intMultLatency);
    hashCombine(seed, intDivLatency);
    hashCombine(seed, intMultThroughput);
    hashCombine(seed, fpMultDivUnits);
    hashCombine(seed, fpMultLatency);
    hashCombine(seed, fpDivLatency);
    hashCombine(seed, fpSqrtLatency);
    hashCombine(seed, l1iNextLinePrefetch ? 1 : 0);
    hashCombine(seed, l1i);
    hashCombine(seed, l1d);
    hashCombine(seed, l2);
    hashCombine(seed, memLatencyFirst);
    hashCombine(seed, memBandwidthBytes);
    hashCombine(seed, itlb);
    hashCombine(seed, dtlb);
    return seed;
}

std::string
toString(BranchPredictorKind kind)
{
    switch (kind) {
      case BranchPredictorKind::TwoLevel:
        return "2-Level";
      case BranchPredictorKind::Perfect:
        return "Perfect";
    }
    return "?";
}

std::string
toString(BranchUpdateTiming timing)
{
    return timing == BranchUpdateTiming::InCommit ? "In Commit"
                                                  : "In Decode";
}

std::string
ProcessorConfig::toString() const
{
    std::ostringstream os;
    os << "core: width=" << machineWidth << " ifq=" << ifqEntries
       << " rob=" << robEntries << " lsq=" << lsqEntries()
       << " memports=" << memPorts << "\n"
       << "bpred: " << sim::toString(bpred)
       << " penalty=" << bpredPenalty << " ras=" << rasEntries
       << " btb=" << btbEntries << "x"
       << (btbAssoc == 0 ? std::string("full")
                         : std::to_string(btbAssoc))
       << " update=" << sim::toString(specBranchUpdate) << "\n"
       << "fu: ialu=" << intAlus << "@" << intAluLatency
       << " falu=" << fpAlus << "@" << fpAluLatency
       << " imd=" << intMultDivUnits << "@" << intMultLatency << "/"
       << intDivLatency << " fmd=" << fpMultDivUnits << "@"
       << fpMultLatency << "/" << fpDivLatency << "/" << fpSqrtLatency
       << "\n"
       << "l1i: " << l1i.sizeBytes / 1024 << "KB/"
       << (l1i.assoc == 0 ? std::string("full")
                          : std::to_string(l1i.assoc))
       << "way/" << l1i.blockBytes << "B@" << l1i.latency << "\n"
       << "l1d: " << l1d.sizeBytes / 1024 << "KB/"
       << (l1d.assoc == 0 ? std::string("full")
                          : std::to_string(l1d.assoc))
       << "way/" << l1d.blockBytes << "B@" << l1d.latency << "\n"
       << "l2: " << l2.sizeBytes / 1024 << "KB/"
       << (l2.assoc == 0 ? std::string("full")
                         : std::to_string(l2.assoc))
       << "way/" << l2.blockBytes << "B@" << l2.latency << "\n"
       << "mem: first=" << memLatencyFirst << " following="
       << memLatencyFollowing() << " bw=" << memBandwidthBytes << "B\n"
       << "itlb: " << itlb.entries << "e/"
       << (itlb.assoc == 0 ? std::string("full")
                           : std::to_string(itlb.assoc))
       << "way/" << itlb.pageBytes / 1024 << "KBpage@"
       << itlb.missLatency << "\n"
       << "dtlb: " << dtlb.entries << "e/"
       << (dtlb.assoc == 0 ? std::string("full")
                           : std::to_string(dtlb.assoc))
       << "way/" << dtlb.pageBytes / 1024 << "KBpage@"
       << dtlb.missLatency << "\n";
    return os.str();
}

} // namespace rigor::sim
