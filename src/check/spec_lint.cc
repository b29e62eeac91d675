#include "check/spec_lint.hh"

#include <charconv>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "check/config_check.hh"
#include "check/rule_ids.hh"
#include "check/workload_check.hh"
#include "trace/workloads.hh"

namespace rigor::check
{

namespace
{

std::string
trim(const std::string &s)
{
    const std::size_t first = s.find_first_not_of(" \t");
    if (first == std::string::npos)
        return {};
    const std::size_t last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
}

template <typename T>
bool
parseNumber(const std::string &value, T &out)
{
    const char *first = value.data();
    const char *last = value.data() + value.size();
    if constexpr (std::is_floating_point_v<T>) {
        try {
            std::size_t used = 0;
            out = static_cast<T>(std::stod(value, &used));
            return used == value.size();
        } catch (const std::exception &) {
            return false;
        }
    } else {
        const std::from_chars_result res =
            std::from_chars(first, last, out);
        return res.ec == std::errc{} && res.ptr == last;
    }
}

bool
parseBool(const std::string &value, bool &out)
{
    if (value == "true" || value == "1") {
        out = true;
        return true;
    }
    if (value == "false" || value == "0") {
        out = false;
        return true;
    }
    return false;
}

/** Applies one "key = value"; returns false for an unknown key and
 *  throws std::invalid_argument for a bad value. */
bool
applyKey(ExperimentSpec &spec, const std::string &key,
         const std::string &value)
{
    const auto bad = [&](const char *kind) -> bool {
        throw std::invalid_argument("expected " + std::string(kind) +
                                    ", got '" + value + "'");
    };
    const auto setU32 = [&](std::uint32_t &field) {
        return parseNumber(value, field) || bad("an unsigned integer");
    };
    const auto setU64 = [&](std::uint64_t &field) {
        return parseNumber(value, field) || bad("an unsigned integer");
    };
    const auto setDouble = [&](double &field) {
        return parseNumber(value, field) || bad("a number");
    };
    const auto setBool = [&](bool &field) {
        return parseBool(value, field) || bad("true/false");
    };

    sim::ProcessorConfig &c = spec.config;
    trace::WorkloadProfile &w = spec.workload;

    // ----- Run lengths -----
    if (key == "run.instructions")
        return setU64(spec.instructions);
    if (key == "run.warmup")
        return setU64(spec.warmup);

    // ----- Workload -----
    if (key == "workload") {
        // Built-in base profile; later workload.* keys override it.
        spec.workload = trace::workloadByName(value); // throws if unknown
        spec.hasWorkload = true;
        return true;
    }
    if (key.starts_with("workload.")) {
        spec.hasWorkload = true;
        const std::string field = key.substr(9);
        if (field == "name") {
            w.name = value;
            return true;
        }
        if (field == "isFloatingPoint")
            return setBool(w.isFloatingPoint);
        const struct
        {
            const char *name;
            double trace::WorkloadProfile::*member;
        } doubles[] = {
            {"fracLoad", &trace::WorkloadProfile::fracLoad},
            {"fracStore", &trace::WorkloadProfile::fracStore},
            {"fracIntMult", &trace::WorkloadProfile::fracIntMult},
            {"fracIntDiv", &trace::WorkloadProfile::fracIntDiv},
            {"fracFpAlu", &trace::WorkloadProfile::fracFpAlu},
            {"fracFpMult", &trace::WorkloadProfile::fracFpMult},
            {"fracFpDiv", &trace::WorkloadProfile::fracFpDiv},
            {"fracFpSqrt", &trace::WorkloadProfile::fracFpSqrt},
            {"avgBlockInstrs", &trace::WorkloadProfile::avgBlockInstrs},
            {"takenBias", &trace::WorkloadProfile::takenBias},
            {"branchPredictability",
             &trace::WorkloadProfile::branchPredictability},
            {"callFraction", &trace::WorkloadProfile::callFraction},
            {"avgCallDepth", &trace::WorkloadProfile::avgCallDepth},
            {"hotDataFraction",
             &trace::WorkloadProfile::hotDataFraction},
            {"fracPointerChase",
             &trace::WorkloadProfile::fracPointerChase},
            {"fracStrided", &trace::WorkloadProfile::fracStrided},
            {"valueLocality", &trace::WorkloadProfile::valueLocality},
            {"avgDependencyDistance",
             &trace::WorkloadProfile::avgDependencyDistance},
        };
        for (const auto &d : doubles)
            if (field == d.name)
                return setDouble(w.*(d.member));
        if (field == "codeFootprintBytes")
            return setU64(w.codeFootprintBytes);
        if (field == "hotCodeBytes")
            return setU64(w.hotCodeBytes);
        if (field == "dataFootprintBytes")
            return setU64(w.dataFootprintBytes);
        if (field == "strideBytes")
            return setU32(w.strideBytes);
        return false;
    }

    // ----- Processor configuration -----
    if (!key.starts_with("config."))
        return false;
    const std::string field = key.substr(7);

    if (field == "lsqRatio")
        return setDouble(c.lsqRatio);
    if (field == "bpred") {
        if (value == "2-level")
            c.bpred = sim::BranchPredictorKind::TwoLevel;
        else if (value == "perfect")
            c.bpred = sim::BranchPredictorKind::Perfect;
        else
            bad("2-level or perfect");
        return true;
    }
    if (field == "specBranchUpdate") {
        if (value == "commit")
            c.specBranchUpdate = sim::BranchUpdateTiming::InCommit;
        else if (value == "decode")
            c.specBranchUpdate = sim::BranchUpdateTiming::InDecode;
        else
            bad("commit or decode");
        return true;
    }
    if (field == "l1iNextLinePrefetch")
        return setBool(c.l1iNextLinePrefetch);

    const struct
    {
        const char *name;
        std::uint32_t sim::ProcessorConfig::*member;
    } u32s[] = {
        {"ifqEntries", &sim::ProcessorConfig::ifqEntries},
        {"bpredPenalty", &sim::ProcessorConfig::bpredPenalty},
        {"rasEntries", &sim::ProcessorConfig::rasEntries},
        {"btbEntries", &sim::ProcessorConfig::btbEntries},
        {"btbAssoc", &sim::ProcessorConfig::btbAssoc},
        {"machineWidth", &sim::ProcessorConfig::machineWidth},
        {"robEntries", &sim::ProcessorConfig::robEntries},
        {"memPorts", &sim::ProcessorConfig::memPorts},
        {"intAlus", &sim::ProcessorConfig::intAlus},
        {"intAluLatency", &sim::ProcessorConfig::intAluLatency},
        {"intAluThroughput", &sim::ProcessorConfig::intAluThroughput},
        {"fpAlus", &sim::ProcessorConfig::fpAlus},
        {"fpAluLatency", &sim::ProcessorConfig::fpAluLatency},
        {"fpAluThroughput", &sim::ProcessorConfig::fpAluThroughput},
        {"intMultDivUnits", &sim::ProcessorConfig::intMultDivUnits},
        {"intMultLatency", &sim::ProcessorConfig::intMultLatency},
        {"intDivLatency", &sim::ProcessorConfig::intDivLatency},
        {"intMultThroughput",
         &sim::ProcessorConfig::intMultThroughput},
        {"fpMultDivUnits", &sim::ProcessorConfig::fpMultDivUnits},
        {"fpMultLatency", &sim::ProcessorConfig::fpMultLatency},
        {"fpDivLatency", &sim::ProcessorConfig::fpDivLatency},
        {"fpSqrtLatency", &sim::ProcessorConfig::fpSqrtLatency},
        {"memLatencyFirst", &sim::ProcessorConfig::memLatencyFirst},
        {"memBandwidthBytes",
         &sim::ProcessorConfig::memBandwidthBytes},
    };
    for (const auto &u : u32s)
        if (field == u.name)
            return setU32(c.*(u.member));

    // Nested cache and TLB geometry, e.g. "config.l1d.sizeBytes".
    const struct
    {
        const char *prefix;
        sim::CacheGeometry sim::ProcessorConfig::*member;
    } caches[] = {
        {"l1i.", &sim::ProcessorConfig::l1i},
        {"l1d.", &sim::ProcessorConfig::l1d},
        {"l2.", &sim::ProcessorConfig::l2},
    };
    for (const auto &cache : caches) {
        if (!field.starts_with(cache.prefix))
            continue;
        sim::CacheGeometry &g = c.*(cache.member);
        const std::string sub =
            field.substr(std::string(cache.prefix).size());
        if (sub == "sizeBytes")
            return setU32(g.sizeBytes);
        if (sub == "assoc")
            return setU32(g.assoc);
        if (sub == "blockBytes")
            return setU32(g.blockBytes);
        if (sub == "latency")
            return setU32(g.latency);
        return false;
    }
    const struct
    {
        const char *prefix;
        sim::TlbGeometry sim::ProcessorConfig::*member;
    } tlbs[] = {
        {"itlb.", &sim::ProcessorConfig::itlb},
        {"dtlb.", &sim::ProcessorConfig::dtlb},
    };
    for (const auto &tlb : tlbs) {
        if (!field.starts_with(tlb.prefix))
            continue;
        sim::TlbGeometry &g = c.*(tlb.member);
        const std::string sub =
            field.substr(std::string(tlb.prefix).size());
        if (sub == "entries")
            return setU32(g.entries);
        if (sub == "pageBytes")
            return setU64(g.pageBytes);
        if (sub == "assoc")
            return setU32(g.assoc);
        if (sub == "missLatency")
            return setU32(g.missLatency);
        return false;
    }
    return false;
}

} // namespace

ExperimentSpec
parseExperimentSpec(const std::string &text,
                    const std::string &filename, DiagnosticSink &sink)
{
    ExperimentSpec spec;
    std::istringstream is(text);
    std::string line;
    std::size_t line_num = 0;
    while (std::getline(is, line)) {
        ++line_num;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const std::string content = trim(line);
        if (content.empty())
            continue;

        const SourceContext ctx{filename, line_num, {}};
        const std::size_t eq = content.find('=');
        if (eq == std::string::npos) {
            sink.error(rules::kSpecSyntax,
                       "expected 'key = value', got '" + content + "'",
                       ctx);
            continue;
        }
        const std::string key = trim(content.substr(0, eq));
        const std::string value = trim(content.substr(eq + 1));
        if (key.empty() || value.empty()) {
            sink.error(rules::kSpecSyntax,
                       "empty key or value in '" + content + "'", ctx);
            continue;
        }

        try {
            if (!applyKey(spec, key, value))
                sink.error(rules::kSpecUnknownKey,
                           "unknown key '" + key + "'", ctx);
        } catch (const std::invalid_argument &e) {
            if (key == "workload")
                sink.error(rules::kSpecUnknownWorkload,
                           "unknown built-in workload '" + value + "'",
                           ctx);
            else
                sink.error(rules::kSpecBadValue,
                           "bad value for '" + key + "': " + e.what(),
                           ctx);
        }
    }
    return spec;
}

bool
lintExperimentSpec(const std::string &text,
                   const std::string &filename, DiagnosticSink &sink)
{
    const std::size_t before = sink.errorCount();
    ExperimentSpec spec = parseExperimentSpec(text, filename, sink);
    if (sink.errorCount() != before)
        return false;

    SourceContext ctx;
    ctx.file = filename;
    checkProcessorConfig(spec.config, sink, ctx);
    if (spec.hasWorkload) {
        if (spec.workload.name.empty())
            spec.workload.name = "(spec)";
        checkWorkloadProfile(spec.workload, sink, ctx);
        checkRunLengths(spec.instructions, spec.warmup, spec.workload,
                        sink, ctx);
    }
    return sink.errorCount() == before;
}

} // namespace rigor::check
