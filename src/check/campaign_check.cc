#include "check/campaign_check.hh"

#include <map>
#include <set>

#include "check/rule_ids.hh"

namespace rigor::check
{

namespace
{

std::string
cellObject(const std::string &noun, const QuarantinedCell &cell)
{
    return "benchmark '" + cell.benchmark + "', " + noun + ' ' +
           std::to_string(cell.row);
}

SourceContext
objectContext(std::string object)
{
    SourceContext ctx;
    ctx.object = std::move(object);
    return ctx;
}

/**
 * Shared drop/abort arbitration once per-cell diagnostics are in the
 * sink: group quarantines by benchmark, then either error out
 * (Abort) or drop whole benchmarks and verify something survives.
 */
void
arbitrate(const std::vector<std::string> &benchmarks,
          std::size_t rowsPerBenchmark, const std::string &rowNoun,
          const std::vector<QuarantinedCell> &quarantined,
          DegradationMode mode, CampaignAssessment &out)
{
    std::map<std::string, std::size_t> failed_rows;
    for (const QuarantinedCell &cell : quarantined)
        ++failed_rows[cell.benchmark];

    for (const std::string &bench : benchmarks) {
        const auto it = failed_rows.find(bench);
        if (it == failed_rows.end())
            continue;
        const std::string detail =
            std::to_string(it->second) + " of " +
            std::to_string(rowsPerBenchmark) + ' ' + rowNoun +
            "s " + (it->second == 1 ? "is" : "are") + " quarantined";
        if (mode == DegradationMode::Abort) {
            out.sink.error(
                rules::kCampaignBenchmarkIncomplete,
                detail + " and degradation mode is abort; rerun "
                         "with --degrade=drop-benchmark or fix the "
                         "failure to obtain a rank table",
                objectContext("benchmark '" + bench + "'"));
        } else {
            out.sink.warning(
                rules::kCampaignBenchmarkDropped,
                detail + "; dropping the benchmark from the rank "
                         "aggregation (Table 9 sums cover fewer "
                         "benchmarks and are labeled accordingly)",
                objectContext("benchmark '" + bench + "'"));
            out.dropBenchmarks.push_back(bench);
        }
    }

    if (mode == DegradationMode::DropBenchmark &&
        !benchmarks.empty() &&
        out.dropBenchmarks.size() == benchmarks.size()) {
        out.sink.error(
            rules::kCampaignNoCompleteBenchmarks,
            "every benchmark has quarantined " + rowNoun +
                "s; no rank table can be aggregated");
    }
}

} // namespace

std::string
toString(DegradationMode mode)
{
    switch (mode) {
      case DegradationMode::Abort:
        return "abort";
      case DegradationMode::DropBenchmark:
        return "drop-benchmark";
    }
    return "?";
}

CampaignAssessment
assessCampaignValidity(const std::vector<std::string> &benchmarks,
                       std::size_t designRows, bool folded,
                       const std::vector<QuarantinedCell> &quarantined,
                       DegradationMode mode)
{
    CampaignAssessment out;
    if (quarantined.empty())
        return out;

    std::set<std::pair<std::string, std::size_t>> failed_cells;
    for (const QuarantinedCell &cell : quarantined)
        failed_cells.insert({cell.benchmark, cell.row});

    for (const QuarantinedCell &cell : quarantined) {
        out.sink.warning(
            rules::kCampaignCellQuarantined,
            "response cell failed terminally (" + cell.kind +
                ") after " + std::to_string(cell.attempts) +
                (cell.attempts == 1 ? " attempt: " : " attempts: ") +
                cell.message,
            objectContext(cellObject("design row", cell)));
        // In a foldover design rows r and r + R/2 are sign-flipped
        // mirrors; losing one of the pair collapses the main-effect /
        // interaction separation the foldover exists to provide.
        if (folded && designRows % 2 == 0 && designRows != 0) {
            const std::size_t half = designRows / 2;
            const std::size_t mirror = cell.row < half
                                           ? cell.row + half
                                           : cell.row - half;
            if (!failed_cells.count({cell.benchmark, mirror}))
                out.sink.note(
                    rules::kCampaignFoldoverPairBroken,
                    "its foldover mirror (design row " +
                        std::to_string(mirror) +
                        ") completed, but the pair's main-effect/"
                        "interaction separation is broken",
                    objectContext(cellObject("design row", cell)));
        }
    }

    arbitrate(benchmarks, designRows, "design row", quarantined, mode,
              out);
    return out;
}

CampaignAssessment
assessFactorialValidity(const std::vector<std::string> &workloads,
                        std::size_t cells,
                        const std::vector<QuarantinedCell> &quarantined,
                        DegradationMode mode)
{
    CampaignAssessment out;
    if (quarantined.empty())
        return out;

    for (const QuarantinedCell &cell : quarantined)
        out.sink.warning(
            rules::kCampaignCellQuarantined,
            "response cell failed terminally (" + cell.kind +
                ") after " + std::to_string(cell.attempts) +
                (cell.attempts == 1 ? " attempt: " : " attempts: ") +
                cell.message,
            objectContext(cellObject("factorial cell", cell)));

    arbitrate(workloads, cells, "factorial cell", quarantined, mode,
              out);
    return out;
}

namespace
{

std::string
campaignWhat(const std::string &who, const DiagnosticSink &sink)
{
    std::string what =
        who + ": campaign degraded below statistical validity (" +
        sink.summary() + ")\n" + sink.toString();
    if (!what.empty() && what.back() == '\n')
        what.pop_back();
    return what;
}

} // namespace

CampaignError::CampaignError(const std::string &who,
                             DiagnosticSink sink)
    : std::runtime_error(campaignWhat(who, sink)),
      _sink(std::move(sink))
{
}

} // namespace rigor::check
