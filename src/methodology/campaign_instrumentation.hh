/**
 * @file
 * Shared driver-side campaign plumbing (internal).
 *
 * Every experiment driver does the same dance: attach the campaign's
 * sinks to whichever engine runs it — restoring whatever a shared
 * engine had before, even on throw — wrap each
 * phase in a TraceSpan plus a manifest "phase" record, digest the
 * design for the manifest's campaign record, and run each design as
 * one batch of (workload, row) cells whose responses, sampling CI
 * half-widths and quarantined cells come back in [workload][row]
 * form (runDesignBatch). These helpers keep that dance in one place
 * so the drivers stay about the methodology.
 */

#ifndef RIGOR_METHODOLOGY_CAMPAIGN_INSTRUMENTATION_HH
#define RIGOR_METHODOLOGY_CAMPAIGN_INSTRUMENTATION_HH

#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/campaign_check.hh"
#include "doe/design_matrix.hh"
#include "exec/campaign_options.hh"
#include "exec/engine.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"

namespace rigor::methodology::detail
{

/** FNV-1a digest (hex) of a design matrix's dimensions and signs. */
inline std::string
designDigest(const doe::DesignMatrix &design)
{
    std::string serialized;
    serialized.reserve(design.numRows() * (design.numColumns() + 1) +
                       16);
    serialized += std::to_string(design.numRows());
    serialized += 'x';
    serialized += std::to_string(design.numColumns());
    serialized += ':';
    for (std::size_t r = 0; r < design.numRows(); ++r)
        for (std::size_t c = 0; c < design.numColumns(); ++c)
            serialized += design.sign(r, c) > 0 ? '+' : '-';
    return obs::digestHex(obs::fnv1a(serialized));
}

/**
 * RAII: one campaign's hold on its engine. The top-level driver call
 * builds it once per campaign; it
 *  - runs on campaign.engine when set (sharing its run cache and
 *    progress counters), else on a private engine with
 *    campaign.threads workers and the real simulator;
 *  - snapshots the engine's progress as it opens, so executed()
 *    counts this campaign's runs only, not a shared engine's earlier
 *    campaigns;
 *  - attaches the campaign's journal, metrics and trace sinks;
 *  - chains the current phase's job observer (see observe()) behind
 *    whatever observer the caller had attached, so e.g. the campaign
 *    CLI's replay printer keeps seeing events.
 *
 * It leaves the engine's attempt executor alone: every phase runs on
 * whatever the caller attached (the in-thread simulator or a sandbox
 * pool). The destructor restores the sinks and
 * observer the engine arrived with, even when a batch throws.
 */
class CampaignScope
{
  public:
    explicit CampaignScope(const exec::CampaignOptions &campaign)
        : _ownedEngine(campaign.engine
                           ? nullptr
                           : std::make_unique<exec::SimulationEngine>(
                                 exec::EngineOptions{campaign.threads,
                                                     true})),
          _engine(campaign.engine ? *campaign.engine : *_ownedEngine),
          _previousJournal(_engine.journal()),
          _previousMetrics(_engine.metrics()),
          _previousTrace(_engine.traceWriter()),
          _previousObserver(_engine.jobObserver()),
          _progressAtOpen(_engine.progress().snapshot())
    {
        if (campaign.journal)
            _engine.setJournal(campaign.journal);
        if (campaign.metrics)
            _engine.setMetrics(campaign.metrics);
        if (campaign.trace)
            _engine.setTraceWriter(campaign.trace);
    }

    ~CampaignScope()
    {
        _engine.setJournal(_previousJournal);
        _engine.setMetrics(_previousMetrics);
        _engine.setTraceWriter(_previousTrace);
        _engine.setJobObserver(std::move(_previousObserver));
    }

    CampaignScope(const CampaignScope &) = delete;
    CampaignScope &operator=(const CampaignScope &) = delete;

    exec::SimulationEngine &engine() const { return _engine; }

    /** The engine's progress since this scope opened. */
    exec::ProgressSnapshot executed() const
    {
        return _engine.progress().snapshot().since(_progressAtOpen);
    }

    /**
     * Feed the next batches' job events to @p observer as well as to
     * the caller's observer, replacing the previous phase's. Call
     * only between batches.
     */
    void observe(exec::JobObserver observer)
    {
        if (_previousObserver && observer)
            observer = [first = _previousObserver,
                        second = std::move(observer)](
                           const exec::JobEvent &event) {
                first(event);
                second(event);
            };
        _engine.setJobObserver(observer ? std::move(observer)
                                        : _previousObserver);
    }

  private:
    std::unique_ptr<exec::SimulationEngine> _ownedEngine;
    exec::SimulationEngine &_engine;
    exec::ResultJournal *_previousJournal;
    obs::MetricsRegistry *_previousMetrics;
    obs::TraceWriter *_previousTrace;
    exec::JobObserver _previousObserver;
    exec::ProgressSnapshot _progressAtOpen;
};

/**
 * RAII driver phase: a TraceSpan on lane 0 plus a manifest "phase"
 * record with the phase's wall time, both no-ops when the respective
 * sink is null.
 */
class PhaseScope
{
  public:
    PhaseScope(const exec::CampaignOptions &campaign, std::string name)
        : _manifest(campaign.manifest), _name(std::move(name)),
          _span(campaign.trace, _name),
          _start(std::chrono::steady_clock::now())
    {
    }

    ~PhaseScope()
    {
        if (!_manifest)
            return;
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - _start;
        _manifest->addPhase(_name, wall.count());
    }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

    obs::TraceSpan &span() { return _span; }

  private:
    obs::CampaignManifest *_manifest;
    std::string _name;
    obs::TraceSpan _span;
    std::chrono::steady_clock::time_point _start;
};

/**
 * JobObserver that appends one manifest cell per finished job,
 * mapping the benchmark-major job index (all rows of benchmark 0,
 * then benchmark 1, ...) back onto (benchmark, design row). Returns
 * an empty observer when the manifest is null, so the engine skips
 * the callback entirely.
 */
inline exec::JobObserver
manifestCellObserver(obs::CampaignManifest *manifest,
                     std::vector<std::string> benchmarks,
                     std::size_t num_runs)
{
    if (!manifest || num_runs == 0 || benchmarks.empty())
        return {};
    return [manifest, benchmarks = std::move(benchmarks),
            num_runs](const exec::JobEvent &event) {
        const std::size_t bench = event.jobIndex / num_runs;
        obs::CellRecord cell;
        cell.benchmark = bench < benchmarks.size()
                             ? benchmarks[bench]
                             : std::to_string(bench);
        cell.row = event.jobIndex % num_runs;
        cell.runKey = event.runKey;
        cell.source =
            event.ok ? exec::toString(event.source) : "failed";
        cell.attempts = event.attempts;
        cell.wallSeconds = event.wallSeconds;
        cell.result = event.result;
        manifest->addCell(cell);
    };
}

/** One design's cells as the engine handed them back. */
struct DesignBatch
{
    /** Response cycles: responses[workload][row]; NaN where
     *  quarantined. */
    std::vector<std::vector<double>> responses;
    /** Sampling CI half-widths in cycles, same layout (see
     *  exec::BatchResult::ciHalfWidths). */
    std::vector<std::vector<double>> ciHalfWidths;
    /** Cells quarantined under collect-failures, in job order. */
    std::vector<check::QuarantinedCell> quarantined;
    /** The batch's progress delta, for the campaign's summary. */
    exec::ProgressSnapshot execution;
};

/**
 * Run one design's cells — jobs in workload-major order, @p rows per
 * workload — on the scope's engine under the campaign's fault
 * policy, inside the driver phase @p phase_name (its span tagged with
 * @p span_args, then the job count). Each finished cell becomes a
 * manifest cell record. Fail-fast errors and BatchAbort propagate
 * unwrapped.
 */
inline DesignBatch
runDesignBatch(CampaignScope &scope,
               const exec::CampaignOptions &campaign,
               const std::vector<std::string> &workloads,
               std::size_t rows, std::span<const exec::SimJob> jobs,
               std::string phase_name,
               obs::TraceWriter::Args span_args = {})
{
    exec::SimulationEngine &engine = scope.engine();
    scope.observe(
        manifestCellObserver(campaign.manifest, workloads, rows));
    const exec::ProgressSnapshot before = engine.progress().snapshot();
    exec::BatchResult batch;
    {
        PhaseScope phase(campaign, std::move(phase_name));
        for (auto &[key, value] : span_args)
            phase.span().arg(std::move(key), std::move(value));
        phase.span().arg("jobs", std::to_string(jobs.size()));
        batch = engine.run(jobs, campaign.faultPolicy);
    }
    scope.observe({});

    DesignBatch out;
    out.execution = engine.progress().snapshot().since(before);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::size_t first = w * rows;
        out.responses.emplace_back(
            batch.responses.begin() + first,
            batch.responses.begin() + first + rows);
        out.ciHalfWidths.emplace_back(
            batch.ciHalfWidths.begin() + first,
            batch.ciHalfWidths.begin() + first + rows);
    }
    out.quarantined.reserve(batch.failures.size());
    for (exec::JobFailure &f : batch.failures) {
        check::QuarantinedCell cell;
        cell.benchmark = workloads[f.jobIndex / rows];
        cell.row = f.jobIndex % rows;
        cell.attempts = f.attempts;
        cell.kind = exec::toString(f.kind);
        cell.message = std::move(f.message);
        out.quarantined.push_back(std::move(cell));
    }
    return out;
}

} // namespace rigor::methodology::detail

#endif // RIGOR_METHODOLOGY_CAMPAIGN_INSTRUMENTATION_HH
