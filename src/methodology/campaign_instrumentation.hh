/**
 * @file
 * Shared driver-side campaign plumbing (internal).
 *
 * Every experiment driver does the same dance: attach the campaign's
 * sinks to whichever engine runs it — restoring whatever a shared
 * engine had before, even on throw — wrap each
 * phase in a TraceSpan plus a manifest "phase" record, and run each
 * leg (the screen, a replicate, a refinement round, an enhancement
 * leg, the workflow's factorial) through one runner, runDesignBatch:
 * campaign record, pre-flight, then one batch of (workload, row)
 * cells whose responses, sampling CI half-widths and quarantined
 * cells come back in [workload][row] form. These helpers keep that
 * dance in one place so the drivers stay about the methodology.
 */

#ifndef RIGOR_METHODOLOGY_CAMPAIGN_INSTRUMENTATION_HH
#define RIGOR_METHODOLOGY_CAMPAIGN_INSTRUMENTATION_HH

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/campaign_check.hh"
#include "check/preflight.hh"
#include "doe/design_matrix.hh"
#include "exec/campaign_options.hh"
#include "exec/engine.hh"
#include "methodology/pb_experiment.hh"
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
 * The manifest cell records of one batch, appended in job order. The
 * observer() keeps each finished job's record under its
 * benchmark-major job index (all rows of benchmark 0, then benchmark
 * 1, ...), mapped back onto (benchmark, design row); flush() appends
 * the records held in job order, so the manifest does not depend on
 * which worker finished first. A null manifest keeps nothing, and its
 * observer() is empty, so the engine skips the callback entirely.
 */
class ManifestCells
{
  public:
    ManifestCells(obs::CampaignManifest *manifest,
                  const std::vector<std::string> &benchmarks,
                  std::size_t rows, std::size_t jobs)
        : _manifest(rows == 0 || benchmarks.empty() ? nullptr : manifest),
          _benchmarks(benchmarks), _rows(rows)
    {
        if (_manifest)
            _cells.resize(jobs);
    }

    /** Keeps each event's record. Each job index is written once, by
     *  the worker that ran it, and read by flush() after the batch's
     *  workers joined. */
    exec::JobObserver
    observer()
    {
        if (!_manifest)
            return {};
        return [this](const exec::JobEvent &event) {
            const std::size_t bench = event.jobIndex / _rows;
            obs::CellRecord cell;
            cell.benchmark = bench < _benchmarks.size()
                                 ? _benchmarks[bench]
                                 : std::to_string(bench);
            cell.row = event.jobIndex % _rows;
            cell.runKey = event.runKey;
            cell.source =
                event.ok ? exec::toString(event.source) : "failed";
            cell.attempts = event.attempts;
            cell.wallSeconds = event.wallSeconds;
            cell.result = event.result;
            _cells.at(event.jobIndex) = std::move(cell);
        };
    }

    /** Append every kept record in job order, once. */
    void
    flush()
    {
        for (std::optional<obs::CellRecord> &cell : _cells)
            if (cell)
                _manifest->addCell(*cell);
        _cells.clear();
    }

  private:
    obs::CampaignManifest *_manifest;
    const std::vector<std::string> &_benchmarks;
    std::size_t _rows;
    std::vector<std::optional<obs::CellRecord>> _cells;
};

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
 * The one leg runner: every driver runs every leg of its campaign
 * through it. It writes the leg's manifest "campaign" record
 * (@p info, whose workloads and rows lay out @p jobs workload-major:
 * all rows of workload 0, then workload 1, ...), pre-flights
 * @p plan inside the driver phase @p preflight_phase unless
 * campaign.skipPreflight, then runs the cells on the scope's engine
 * under the campaign's fault policy inside the driver phase
 * @p phase_name (its span tagged with @p span_args, then the job
 * count). Each finished cell becomes a manifest cell record, written
 * in job order when the batch returns or throws, before the phase's
 * own record.
 *
 * Pre-flight errors name @p who. A fail-fast error comes back as
 * "<who>: simulation failed: <engine message>"; BatchAbort
 * (journal I/O, crash drill) propagates unwrapped so a campaign
 * driver can recognize it and resume against the journal.
 */
inline DesignBatch
runDesignBatch(CampaignScope &scope,
               const exec::CampaignOptions &campaign, const char *who,
               const obs::CampaignInfo &info,
               const check::ExperimentPlan &plan,
               std::string preflight_phase,
               std::span<const exec::SimJob> jobs,
               std::string phase_name,
               obs::TraceWriter::Args span_args = {})
{
    const std::vector<std::string> &workloads = info.workloads;
    const std::size_t rows = info.rows;
    if (campaign.manifest)
        campaign.manifest->beginCampaign(info);
    if (!campaign.skipPreflight) {
        PhaseScope phase(campaign, std::move(preflight_phase));
        check::preflightOrThrow(plan, who);
    }

    exec::SimulationEngine &engine = scope.engine();
    ManifestCells cells(campaign.manifest, workloads, rows, jobs.size());
    scope.observe(cells.observer());
    const exec::ProgressSnapshot before = engine.progress().snapshot();
    exec::BatchResult batch;
    try {
        PhaseScope phase(campaign, std::move(phase_name));
        for (auto &[key, value] : span_args)
            phase.span().arg(std::move(key), std::move(value));
        phase.span().arg("jobs", std::to_string(jobs.size()));
        // Destroyed before the phase, also when the batch throws: an
        // aborted batch keeps the cells it finished.
        struct CellFlush
        {
            CampaignScope &scope;
            ManifestCells &cells;
            ~CellFlush()
            {
                scope.observe({});
                cells.flush();
            }
        } flush{scope, cells};
        batch = engine.run(jobs, campaign.faultPolicy);
    } catch (const exec::BatchAbort &) {
        throw;
    } catch (const std::exception &e) {
        throw std::runtime_error(std::string(who) +
                                 ": simulation failed: " + e.what());
    }

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

/**
 * Restrict every leg to the benchmarks all of them kept. Fault
 * degradation may drop a different set from each leg, and a paired
 * comparison or a pooled replicate statistic needs one population.
 * The legs report the same suite under the same names. Returns true
 * when some leg lost a benchmark it had kept. When no benchmark is
 * left, reports campaign.no-complete-benchmarks to @p validity and
 * throws check::CampaignError naming @p who, leaving the legs as
 * they were.
 */
bool keepCommonBenchmarks(std::span<PbExperimentResult *const> legs,
                          check::DiagnosticSink &validity,
                          const char *who);

} // namespace rigor::methodology::detail

#endif // RIGOR_METHODOLOGY_CAMPAIGN_INSTRUMENTATION_HH
