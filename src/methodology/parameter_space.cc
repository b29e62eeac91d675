#include "methodology/parameter_space.hh"

#include <array>
#include <stdexcept>

namespace rigor::methodology
{

namespace
{

using doe::Level;

const std::array<ParameterDef, numFactors> definitions = {{
    // Table 6
    {Factor::IfqEntries, "Instruction Fetch Queue Entries", "4", "32"},
    {Factor::BpredType, "BPred Type", "2-Level", "Perfect"},
    {Factor::BpredPenalty, "BPred Misprediction Penalty", "10 Cycles",
     "2 Cycles"},
    {Factor::RasEntries, "Return Address Stack Entries", "4", "64"},
    {Factor::BtbEntries, "BTB Entries", "16", "512"},
    {Factor::BtbAssoc, "BTB Associativity", "2-Way",
     "Fully-Associative"},
    {Factor::SpecBranchUpdate, "Speculative Branch Update", "In Commit",
     "In Decode"},
    {Factor::RobEntries, "Reorder Buffer Entries", "8", "64"},
    {Factor::LsqRatio, "LSQ Entries", "0.25 * ROB", "1.0 * ROB"},
    {Factor::MemPorts, "Memory Ports", "1", "4"},
    // Table 7
    {Factor::IntAlus, "Int ALUs", "1", "4"},
    {Factor::IntAluLatency, "Int ALU Latencies", "2 Cycles", "1 Cycle"},
    {Factor::FpAlus, "FP ALUs", "1", "4"},
    {Factor::FpAluLatency, "FP ALU Latencies", "5 Cycles", "1 Cycle"},
    {Factor::IntMultDivUnits, "Int Mult/Div", "1", "4"},
    {Factor::IntMultLatency, "Int Multiply Latency", "15 Cycles",
     "2 Cycles"},
    {Factor::IntDivLatency, "Int Divide Latency", "80 Cycles",
     "10 Cycles"},
    {Factor::FpMultDivUnits, "FP Mult/Div", "1", "4"},
    {Factor::FpMultLatency, "FP Multiply Latency", "5 Cycles",
     "2 Cycles"},
    {Factor::FpDivLatency, "FP Divide Latency", "35 Cycles",
     "10 Cycles"},
    {Factor::FpSqrtLatency, "FP Square Root Latency", "35 Cycles",
     "15 Cycles"},
    // Table 8
    {Factor::L1iSize, "L1 I-Cache Size", "4 KB", "128 KB"},
    {Factor::L1iAssoc, "L1 I-Cache Associativity", "1-Way", "8-Way"},
    {Factor::L1iBlockSize, "L1 I-Cache Block Size", "16 Bytes",
     "64 Bytes"},
    {Factor::L1iLatency, "L1 I-Cache Latency", "4 Cycles", "1 Cycle"},
    {Factor::L1dSize, "L1 D-Cache Size", "4 KB", "128 KB"},
    {Factor::L1dAssoc, "L1 D-Cache Associativity", "1-Way", "8-Way"},
    {Factor::L1dBlockSize, "L1 D-Cache Block Size", "16 Bytes",
     "64 Bytes"},
    {Factor::L1dLatency, "L1 D-Cache Latency", "4 Cycles", "1 Cycle"},
    {Factor::L2Size, "L2 Cache Size", "256 KB", "8192 KB"},
    {Factor::L2Assoc, "L2 Cache Associativity", "1-Way", "8-Way"},
    {Factor::L2BlockSize, "L2 Cache Block Size", "64 Bytes",
     "256 Bytes"},
    {Factor::L2Latency, "L2 Cache Latency", "20 Cycles", "5 Cycles"},
    {Factor::MemLatencyFirst, "Memory Latency First", "200 Cycles",
     "50 Cycles"},
    {Factor::MemBandwidth, "Memory Bandwidth", "4 Bytes", "32 Bytes"},
    {Factor::ItlbSize, "I-TLB Size", "32 Entries", "256 Entries"},
    {Factor::ItlbPageSize, "I-TLB Page Size", "4 KB", "4096 KB"},
    {Factor::ItlbAssoc, "I-TLB Associativity", "2-Way",
     "Fully-Associative"},
    {Factor::ItlbLatency, "I-TLB Latency", "80 Cycles", "30 Cycles"},
    {Factor::DtlbSize, "D-TLB Size", "32 Entries", "256 Entries"},
    {Factor::DtlbAssoc, "D-TLB Associativity", "2-Way",
     "Fully-Associative"},
    // Dummies
    {Factor::DummyFactor1, "Dummy Factor #1", "-", "-"},
    {Factor::DummyFactor2, "Dummy Factor #2", "-", "-"},
}};

constexpr std::uint32_t kB = 1024;

} // namespace

std::span<const ParameterDef>
parameterDefinitions()
{
    return definitions;
}

const std::string &
factorName(Factor f)
{
    const auto idx = static_cast<std::size_t>(f);
    if (idx >= numFactors)
        throw std::invalid_argument("factorName: bad factor");
    return definitions[idx].name;
}

std::vector<std::string>
factorNames()
{
    std::vector<std::string> names;
    names.reserve(numFactors);
    for (const ParameterDef &def : definitions)
        names.push_back(def.name);
    return names;
}

void
applyFactorLevel(sim::ProcessorConfig &c, Factor factor,
                 doe::Level level)
{
    const bool hi = level == doe::Level::High;
    switch (factor) {
      // ----- Table 6 -----
      case Factor::IfqEntries:
        c.ifqEntries = hi ? 32 : 4;
        break;
      case Factor::BpredType:
        c.bpred = hi ? sim::BranchPredictorKind::Perfect
                     : sim::BranchPredictorKind::TwoLevel;
        break;
      case Factor::BpredPenalty:
        c.bpredPenalty = hi ? 2 : 10;
        break;
      case Factor::RasEntries:
        c.rasEntries = hi ? 64 : 4;
        break;
      case Factor::BtbEntries:
        c.btbEntries = hi ? 512 : 16;
        break;
      case Factor::BtbAssoc:
        c.btbAssoc = hi ? 0 : 2;
        break;
      case Factor::SpecBranchUpdate:
        c.specBranchUpdate = hi ? sim::BranchUpdateTiming::InDecode
                                : sim::BranchUpdateTiming::InCommit;
        break;
      case Factor::RobEntries:
        c.robEntries = hi ? 64 : 8;
        break;
      case Factor::LsqRatio:
        c.lsqRatio = hi ? 1.0 : 0.25;
        break;
      case Factor::MemPorts:
        c.memPorts = hi ? 4 : 1;
        break;
      // ----- Table 7 -----
      case Factor::IntAlus:
        c.intAlus = hi ? 4 : 1;
        break;
      case Factor::IntAluLatency:
        c.intAluLatency = hi ? 1 : 2;
        break;
      case Factor::FpAlus:
        c.fpAlus = hi ? 4 : 1;
        break;
      case Factor::FpAluLatency:
        c.fpAluLatency = hi ? 1 : 5;
        break;
      case Factor::IntMultDivUnits:
        c.intMultDivUnits = hi ? 4 : 1;
        break;
      case Factor::IntMultLatency:
        c.intMultLatency = hi ? 2 : 15;
        break;
      case Factor::IntDivLatency:
        c.intDivLatency = hi ? 10 : 80;
        break;
      case Factor::FpMultDivUnits:
        c.fpMultDivUnits = hi ? 4 : 1;
        break;
      case Factor::FpMultLatency:
        c.fpMultLatency = hi ? 2 : 5;
        break;
      case Factor::FpDivLatency:
        c.fpDivLatency = hi ? 10 : 35;
        break;
      case Factor::FpSqrtLatency:
        c.fpSqrtLatency = hi ? 15 : 35;
        break;
      // ----- Table 8 -----
      case Factor::L1iSize:
        c.l1i.sizeBytes = hi ? 128 * kB : 4 * kB;
        break;
      case Factor::L1iAssoc:
        c.l1i.assoc = hi ? 8 : 1;
        break;
      case Factor::L1iBlockSize:
        c.l1i.blockBytes = hi ? 64 : 16;
        break;
      case Factor::L1iLatency:
        c.l1i.latency = hi ? 1 : 4;
        break;
      case Factor::L1dSize:
        c.l1d.sizeBytes = hi ? 128 * kB : 4 * kB;
        break;
      case Factor::L1dAssoc:
        c.l1d.assoc = hi ? 8 : 1;
        break;
      case Factor::L1dBlockSize:
        c.l1d.blockBytes = hi ? 64 : 16;
        break;
      case Factor::L1dLatency:
        c.l1d.latency = hi ? 1 : 4;
        break;
      case Factor::L2Size:
        c.l2.sizeBytes = hi ? 8192 * kB : 256 * kB;
        break;
      case Factor::L2Assoc:
        c.l2.assoc = hi ? 8 : 1;
        break;
      case Factor::L2BlockSize:
        c.l2.blockBytes = hi ? 256 : 64;
        break;
      case Factor::L2Latency:
        c.l2.latency = hi ? 5 : 20;
        break;
      case Factor::MemLatencyFirst:
        c.memLatencyFirst = hi ? 50 : 200;
        break;
      case Factor::MemBandwidth:
        c.memBandwidthBytes = hi ? 32 : 4;
        break;
      case Factor::ItlbSize:
        c.itlb.entries = hi ? 256 : 32;
        break;
      case Factor::ItlbPageSize:
        c.itlb.pageBytes = hi ? 4096 * std::uint64_t{kB}
                              : 4 * std::uint64_t{kB};
        break;
      case Factor::ItlbAssoc:
        c.itlb.assoc = hi ? 0 : 2;
        break;
      case Factor::ItlbLatency:
        c.itlb.missLatency = hi ? 30 : 80;
        break;
      case Factor::DtlbSize:
        c.dtlbEntries = hi ? 256 : 32;
        break;
      case Factor::DtlbAssoc:
        c.dtlbAssoc = hi ? 0 : 2;
        break;
      // ----- Dummies: no mechanical effect -----
      case Factor::DummyFactor1:
      case Factor::DummyFactor2:
        break;
    }
}

sim::ProcessorConfig
configForLevels(std::span<const doe::Level> levels)
{
    if (levels.size() < numFactors)
        throw std::invalid_argument(
            "configForLevels: need at least 43 levels");

    sim::ProcessorConfig c;
    for (unsigned f = 0; f < numFactors; ++f)
        applyFactorLevel(c, static_cast<Factor>(f), levels[f]);
    c.validate();
    return c;
}

sim::ProcessorConfig
uniformConfig(doe::Level level)
{
    std::vector<Level> levels(numFactors, level);
    return configForLevels(levels);
}

sim::ProcessorConfig
configWithOverrides(
    const std::vector<std::pair<Factor, doe::Level>> &overrides)
{
    sim::ProcessorConfig c; // typical machine
    for (const auto &[factor, level] : overrides)
        applyFactorLevel(c, factor, level);
    c.validate();
    return c;
}

} // namespace rigor::methodology
