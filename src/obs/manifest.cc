#include "obs/manifest.hh"

#include "obs/json.hh"

namespace rigor::obs
{

namespace
{

void
appendStringArray(std::string &out,
                  const std::vector<std::string> &values)
{
    out += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0)
            out += ',';
        appendJsonString(out, values[i]);
    }
    out += ']';
}

} // namespace

void
CampaignManifest::beginCampaign(const CampaignInfo &info)
{
    std::string line = "{\"type\":\"campaign\",\"experiment\":";
    appendJsonString(line, info.experiment);
    line += ",\"factors\":";
    line += std::to_string(info.factors);
    line += ",\"rows\":";
    line += std::to_string(info.rows);
    line += ",\"foldover\":";
    line += info.foldover ? "true" : "false";
    line += ",\"design_digest\":";
    appendJsonString(line, info.designDigest);
    line += ",\"workloads\":";
    appendStringArray(line, info.workloads);
    line += ",\"instructions_per_run\":";
    line += std::to_string(info.instructionsPerRun);
    line += ",\"warmup_instructions\":";
    line += std::to_string(info.warmupInstructions);
    line += ",\"sampling\":";
    line += info.sampling.enabled ? "true" : "false";
    if (info.sampling.enabled) {
        line += ",\"sample_unit\":";
        line += std::to_string(info.sampling.unitInstructions);
        line += ",\"sample_warmup\":";
        line += std::to_string(info.sampling.warmupInstructions);
        line += ",\"sample_interval\":";
        line += std::to_string(info.sampling.intervalInstructions);
        line += ",\"sample_confidence\":";
        line += jsonNumber(info.sampling.confidence);
    }
    line += '}';
    append(std::move(line));
}

void
CampaignManifest::addCell(const CellRecord &cell)
{
    std::string line = "{\"type\":\"cell\",\"benchmark\":";
    appendJsonString(line, cell.benchmark);
    line += ",\"row\":";
    line += std::to_string(cell.row);
    line += ",\"key\":";
    appendJsonString(line, cell.runKey);
    line += ",\"source\":";
    appendJsonString(line, cell.source);
    line += ",\"attempts\":";
    line += std::to_string(cell.attempts);
    line += ",\"wall_seconds\":";
    line += jsonNumber(cell.wallSeconds);
    line += ",\"response\":";
    line += jsonNumber(cell.result.cycles);
    if (const auto &sample = cell.result.sample) {
        line += ",\"sampled\":true,\"sample_units\":";
        line += std::to_string(sample->units);
        line += ",\"sample_rel_error\":";
        line += jsonNumber(sample->relativeError);
        line += ",\"sample_half_width\":";
        line += jsonNumber(sample->ciHalfWidth);
    }
    line += '}';
    append(std::move(line));
}

void
CampaignManifest::addPhase(const std::string &name,
                           double wall_seconds)
{
    std::string line = "{\"type\":\"phase\",\"name\":";
    appendJsonString(line, name);
    line += ",\"wall_seconds\":";
    line += jsonNumber(wall_seconds);
    line += '}';
    append(std::move(line));
}

void
CampaignManifest::addSummary(const SummaryRecord &summary)
{
    const exec::ProgressSnapshot &run = summary.execution;
    std::string line = "{\"type\":\"summary\",\"runs_total\":";
    line += std::to_string(run.runsTotal);
    line += ",\"runs_completed\":";
    line += std::to_string(run.runsCompleted);
    line += ",\"cache_hits\":";
    line += std::to_string(run.cacheHits);
    line += ",\"journal_hits\":";
    line += std::to_string(run.journalHits);
    line += ",\"retries\":";
    line += std::to_string(run.retries);
    line += ",\"failed_jobs\":";
    line += std::to_string(run.failedJobs);
    line += ",\"simulated_instructions\":";
    line += std::to_string(run.simulatedInstructions);
    line += ",\"wall_seconds\":";
    line += jsonNumber(run.wallSeconds);
    line += ",\"dropped_benchmarks\":";
    appendStringArray(line, summary.droppedBenchmarks);
    line += ",\"rank_table_digest\":";
    appendJsonString(line, summary.rankTableDigest);
    line += '}';
    append(std::move(line));
}

void
CampaignManifest::addStability(const StabilityRecord &stability)
{
    std::string line = "{\"type\":\"stability\",\"replicates\":";
    line += std::to_string(stability.replicates);
    line += ",\"bootstrap_iterations\":";
    line += std::to_string(stability.bootstrapIterations);
    line += ",\"bootstrap_seed\":";
    line += std::to_string(stability.bootstrapSeed);
    line += ",\"confidence\":";
    line += jsonNumber(stability.confidence);
    line += ",\"sampled\":";
    line += stability.sampled ? "true" : "false";
    line += ",\"sampling_ci_composed\":";
    line += stability.samplingCiComposed ? "true" : "false";
    line += ",\"factors\":[";
    for (std::size_t f = 0; f < stability.factors.size(); ++f) {
        const StabilityFactor &factor = stability.factors[f];
        if (f != 0)
            line += ',';
        line += "{\"name\":";
        appendJsonString(line, factor.name);
        line += ",\"rank\":";
        line += std::to_string(factor.rank);
        line += ",\"rank_lower\":";
        line += jsonNumber(factor.rankLower);
        line += ",\"rank_upper\":";
        line += jsonNumber(factor.rankUpper);
        line += '}';
    }
    line += "],\"max_flip_probability\":";
    line += jsonNumber(stability.maxFlipProbability);
    line += ",\"report_digest\":";
    appendJsonString(line, stability.reportDigest);
    line += '}';
    append(std::move(line));
}

std::size_t
CampaignManifest::recordCount() const
{
    const std::scoped_lock lock(_mutex);
    return _lines.size();
}

std::string
CampaignManifest::toJsonl() const
{
    const std::scoped_lock lock(_mutex);
    std::string out;
    for (const std::string &line : _lines) {
        out += line;
        out += '\n';
    }
    return out;
}

void
CampaignManifest::writeTo(const std::string &path) const
{
    writeTextFile(path, toJsonl());
}

void
CampaignManifest::append(std::string line)
{
    const std::scoped_lock lock(_mutex);
    _lines.push_back(std::move(line));
}

} // namespace rigor::obs
