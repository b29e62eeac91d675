#include "check/config_check.hh"

#include <optional>
#include <string>

#include "check/rule_ids.hh"

namespace rigor::check
{

namespace
{

using methodology::Factor;
using sim::CacheGeometry;
using sim::ProcessorConfig;

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

SourceContext
labeled(const SourceContext &base, const std::string &what)
{
    SourceContext ctx = base;
    if (ctx.object.empty())
        ctx.object = what;
    else
        ctx.object += ": " + what;
    return ctx;
}

void
checkCacheGeometry(const char *name, const CacheGeometry &g,
                   DiagnosticSink &sink, const SourceContext &base)
{
    const SourceContext ctx = labeled(base, name);
    if (g.sizeBytes == 0 || g.blockBytes == 0) {
        sink.error(rules::kConfigCacheGeometry,
                   "cache size and block size must be non-zero", ctx);
        return;
    }
    if (!isPow2(g.sizeBytes))
        sink.error(rules::kConfigCacheGeometry,
                   "size " + std::to_string(g.sizeBytes) +
                       " is not a power of two",
                   ctx);
    if (!isPow2(g.blockBytes))
        sink.error(rules::kConfigCacheGeometry,
                   "block size " + std::to_string(g.blockBytes) +
                       " is not a power of two",
                   ctx);
    if (g.blockBytes > g.sizeBytes) {
        sink.error(rules::kConfigCacheGeometry,
                   "block size exceeds the cache size", ctx);
        return;
    }
    if (isPow2(g.sizeBytes) && isPow2(g.blockBytes)) {
        const std::uint32_t ways = g.effectiveAssoc();
        if (ways == 0 || g.numBlocks() % ways != 0 ||
            !isPow2(g.numSets()))
            sink.error(rules::kConfigCacheGeometry,
                       "associativity " + std::to_string(g.assoc) +
                           " does not yield a power-of-two set count",
                       ctx);
    }
}

/**
 * The quantity a factor varies, oriented so that a larger value is
 * the table's "high" (performance-friendly) side: resource counts
 * and capacities count up, latencies count down, fully-associative
 * (assoc 0) maps to the structure's entry count. Dummies have no
 * metric.
 */
std::optional<double>
factorMetric(const ProcessorConfig &c, Factor f)
{
    const auto assocMetric = [](std::uint32_t assoc,
                                std::uint32_t entries) {
        return assoc == 0 ? static_cast<double>(entries)
                          : static_cast<double>(assoc);
    };
    switch (f) {
      case Factor::IfqEntries:
        return c.ifqEntries;
      case Factor::BpredType:
        // Enum order is weakest to strongest; Perfect is the "high".
        return static_cast<double>(c.bpred);
      case Factor::BpredPenalty:
        return -static_cast<double>(c.bpredPenalty);
      case Factor::RasEntries:
        return c.rasEntries;
      case Factor::BtbEntries:
        return c.btbEntries;
      case Factor::BtbAssoc:
        return assocMetric(c.btbAssoc, c.btbEntries);
      case Factor::SpecBranchUpdate:
        // InDecode (earlier history update) is the "high" level.
        return static_cast<double>(c.specBranchUpdate);
      case Factor::RobEntries:
        return c.robEntries;
      case Factor::LsqRatio:
        return c.lsqRatio;
      case Factor::MemPorts:
        return c.memPorts;
      case Factor::IntAlus:
        return c.intAlus;
      case Factor::IntAluLatency:
        return -static_cast<double>(c.intAluLatency);
      case Factor::FpAlus:
        return c.fpAlus;
      case Factor::FpAluLatency:
        return -static_cast<double>(c.fpAluLatency);
      case Factor::IntMultDivUnits:
        return c.intMultDivUnits;
      case Factor::IntMultLatency:
        return -static_cast<double>(c.intMultLatency);
      case Factor::IntDivLatency:
        return -static_cast<double>(c.intDivLatency);
      case Factor::FpMultDivUnits:
        return c.fpMultDivUnits;
      case Factor::FpMultLatency:
        return -static_cast<double>(c.fpMultLatency);
      case Factor::FpDivLatency:
        return -static_cast<double>(c.fpDivLatency);
      case Factor::FpSqrtLatency:
        return -static_cast<double>(c.fpSqrtLatency);
      case Factor::L1iSize:
        return c.l1i.sizeBytes;
      case Factor::L1iAssoc:
        return assocMetric(c.l1i.assoc, c.l1i.numBlocks());
      case Factor::L1iBlockSize:
        return c.l1i.blockBytes;
      case Factor::L1iLatency:
        return -static_cast<double>(c.l1i.latency);
      case Factor::L1dSize:
        return c.l1d.sizeBytes;
      case Factor::L1dAssoc:
        return assocMetric(c.l1d.assoc, c.l1d.numBlocks());
      case Factor::L1dBlockSize:
        return c.l1d.blockBytes;
      case Factor::L1dLatency:
        return -static_cast<double>(c.l1d.latency);
      case Factor::L2Size:
        return c.l2.sizeBytes;
      case Factor::L2Assoc:
        return assocMetric(c.l2.assoc, c.l2.numBlocks());
      case Factor::L2BlockSize:
        return c.l2.blockBytes;
      case Factor::L2Latency:
        return -static_cast<double>(c.l2.latency);
      case Factor::MemLatencyFirst:
        return -static_cast<double>(c.memLatencyFirst);
      case Factor::MemBandwidth:
        return c.memBandwidthBytes;
      case Factor::ItlbSize:
        return c.itlb.entries;
      case Factor::ItlbPageSize:
        return static_cast<double>(c.itlb.pageBytes);
      case Factor::ItlbAssoc:
        return assocMetric(c.itlb.assoc, c.itlb.entries);
      case Factor::ItlbLatency:
        return -static_cast<double>(c.itlb.missLatency);
      case Factor::DtlbSize:
        return c.dtlbEntries;
      case Factor::DtlbAssoc:
        return assocMetric(c.dtlbAssoc, c.dtlbEntries);
      case Factor::DummyFactor1:
      case Factor::DummyFactor2:
        return std::nullopt;
    }
    return std::nullopt;
}

} // namespace

bool
checkProcessorConfig(const ProcessorConfig &config,
                     DiagnosticSink &sink, const SourceContext &base)
{
    const std::size_t before = sink.errorCount();

    // ----- Table 6 links -----
    if (config.lsqRatio <= 0.0 || config.lsqRatio > 1.0)
        sink.error(rules::kConfigLsqRatio,
                   "LSQ/ROB ratio " + std::to_string(config.lsqRatio) +
                       " is outside (0, 1]; Table 6 links LSQ "
                       "entries to {0.25, 1.0} x ROB",
                   base);

    // ----- Table 8 links -----
    checkCacheGeometry("l1i", config.l1i, sink, base);
    checkCacheGeometry("l1d", config.l1d, sink, base);
    checkCacheGeometry("l2", config.l2, sink, base);
    if (config.l2.blockBytes < config.l1i.blockBytes ||
        config.l2.blockBytes < config.l1d.blockBytes)
        sink.error(rules::kConfigL2BlockCoversL1,
                   "L2 block size " +
                       std::to_string(config.l2.blockBytes) +
                       " is smaller than an L1 block; refills would "
                       "not cover a line",
                   base);

    // ----- Everything else ProcessorConfig::validate() covers -----
    // Only consulted when the specific rules above are quiet, so a
    // violation is not reported twice under two ids.
    if (sink.errorCount() == before) {
        try {
            config.validate();
        } catch (const std::invalid_argument &e) {
            sink.error(rules::kConfigInvalid, e.what(), base);
        }
    }
    return sink.errorCount() == before;
}

bool
checkFactorLevelPair(Factor factor, DiagnosticSink &sink,
                     const SourceContext &base)
{
    const std::size_t before = sink.errorCount();
    const std::string &name = methodology::factorName(factor);
    const SourceContext ctx = labeled(base, "factor '" + name + "'");

    const ProcessorConfig defaults;
    ProcessorConfig low = defaults;
    ProcessorConfig high = defaults;
    methodology::applyFactorLevel(low, factor, doe::Level::Low);
    methodology::applyFactorLevel(high, factor, doe::Level::High);

    const bool is_dummy = factor == Factor::DummyFactor1 ||
                          factor == Factor::DummyFactor2;
    if (is_dummy) {
        if (!(low == defaults) || !(high == defaults))
            sink.error(rules::kSpaceDummyNotInert,
                       "dummy factor changes the configuration; its "
                       "apparent effect would no longer estimate the "
                       "noise floor",
                       ctx);
        return sink.errorCount() == before;
    }

    if (low == high)
        sink.error(rules::kSpaceLevelPairEqual,
                   "low and high levels produce identical "
                   "configurations; the factor's effect is "
                   "structurally zero",
                   ctx);

    const std::optional<double> low_metric = factorMetric(low, factor);
    const std::optional<double> high_metric =
        factorMetric(high, factor);
    if (low_metric && high_metric && !(*low_metric < *high_metric))
        sink.error(rules::kSpaceLevelOrder,
                   "low level is not the performance-adverse side "
                   "(low metric " + std::to_string(*low_metric) +
                       " vs high " + std::to_string(*high_metric) +
                       "); inverted levels flip the sign of the "
                       "factor's effect",
                   ctx);

    checkProcessorConfig(low, sink, labeled(ctx, "low level"));
    checkProcessorConfig(high, sink, labeled(ctx, "high level"));
    return sink.errorCount() == before;
}

bool
checkParameterSpace(DiagnosticSink &sink, const SourceContext &base)
{
    const std::size_t before = sink.errorCount();
    for (unsigned f = 0; f < methodology::numFactors; ++f)
        checkFactorLevelPair(static_cast<Factor>(f), sink, base);
    return sink.errorCount() == before;
}

} // namespace rigor::check
