#include "obs/bench_report.hh"

#include <fstream>
#include <stdexcept>

#include "obs/json.hh"

namespace rigor::obs
{

std::string
toJson(const BenchReport &report)
{
    std::string out = "{\"name\":";
    appendJsonString(out, report.name);
    out += ",\"wall_seconds\":";
    out += jsonNumber(report.wallSeconds);
    out += ",\"runs_total\":";
    out += std::to_string(report.runsTotal);
    out += ",\"runs_completed\":";
    out += std::to_string(report.runsCompleted);
    out += ",\"runs_per_second\":";
    out += jsonNumber(report.runsPerSecond);
    out += ",\"simulated_instructions\":";
    out += std::to_string(report.simulatedInstructions);
    out += ",\"mips\":";
    out += jsonNumber(report.mips);
    out += ",\"threads\":";
    out += std::to_string(report.threads);
    out += ",\"cache_hits\":";
    out += std::to_string(report.cacheHits);
    out += ",\"journal_hits\":";
    out += std::to_string(report.journalHits);
    if (report.sampled) {
        out += ",\"sampled\":true,\"full_mips\":";
        out += jsonNumber(report.fullMips);
        out += ",\"sampled_mips\":";
        out += jsonNumber(report.sampledMips);
        out += ",\"detailed_instruction_ratio\":";
        out += jsonNumber(report.detailedInstructionRatio);
        out += ",\"sample_rel_error\":";
        out += jsonNumber(report.sampleRelError);
        out += ",\"sample_units\":";
        out += jsonNumber(report.sampleUnits);
    }
    out += '}';
    return out;
}

void
writeBenchReport(const std::string &path, const BenchReport &report)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("writeBenchReport: cannot open '" +
                                 path + "' for writing");
    out << toJson(report) << '\n';
    if (!out)
        throw std::runtime_error("writeBenchReport: write to '" +
                                 path + "' failed");
}

} // namespace rigor::obs
