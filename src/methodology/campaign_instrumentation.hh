/**
 * @file
 * Shared driver-side campaign plumbing (internal).
 *
 * Every experiment driver does the same dance: attach the campaign's
 * sinks and attempt executor to whichever engine runs it — restoring
 * whatever a shared engine had before, even on throw — wrap each
 * phase in a TraceSpan plus a manifest "phase" record, digest the
 * design for the manifest's campaign record, and map engine JobEvents
 * onto manifest cells. These helpers keep that dance in one place so
 * the drivers stay about the methodology.
 */

#ifndef RIGOR_METHODOLOGY_CAMPAIGN_INSTRUMENTATION_HH
#define RIGOR_METHODOLOGY_CAMPAIGN_INSTRUMENTATION_HH

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/campaign_check.hh"
#include "doe/design_matrix.hh"
#include "exec/campaign_options.hh"
#include "exec/engine.hh"
#include "exec/net/controller.hh"
#include "exec/proc/worker_pool.hh"
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

/** Combine two job observers (either may be empty). */
inline exec::JobObserver
bothObservers(exec::JobObserver first, exec::JobObserver second)
{
    if (!first || !second)
        return first ? std::move(first) : std::move(second);
    return [first = std::move(first), second = std::move(second)](
               const exec::JobEvent &event) {
        first(event);
        second(event);
    };
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
 *    CLI's replay printer keeps seeing events;
 *  - attaches the attempt executor, chosen exactly once: the caller's
 *    campaign.netController when set (a remote campaign), else under
 *    IsolationMode::Process a sandbox pool the scope owns, else the
 *    engine's current in-thread executor.
 *
 * The pool captures the engine's *current* executor — the real
 * simulator, a test stub, or a fault-injector wrapper — as the
 * executor inside the forked workers, so injected faults drill the
 * sandbox rather than the parent. Inner phases (workflow screen and
 * factorial, enhancement legs, adaptive rounds, replicates) run on
 * the attached executor and never choose again. The destructor
 * restores everything the engine arrived with, even when a batch
 * throws.
 */
class CampaignScope
{
  public:
    explicit CampaignScope(
        const exec::CampaignOptions &campaign,
        exec::proc::SandboxHookFactory hook_factory = {})
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
          _previousSimulate(_engine.simulateFn()),
          _progressAtOpen(_engine.progress().snapshot())
    {
        if (campaign.journal)
            _engine.setJournal(campaign.journal);
        if (campaign.metrics)
            _engine.setMetrics(campaign.metrics);
        if (campaign.trace)
            _engine.setTraceWriter(campaign.trace);

        if (campaign.netController != nullptr) {
            _engine.setSimulate(campaign.netController->simulateFn());
        } else if (campaign.isolation ==
                   exec::IsolationMode::Process) {
            exec::proc::ProcWorkerPool::Options options;
            options.workers = _engine.threads();
            options.simulate = _previousSimulate;
            options.hookFactory = std::move(hook_factory);
            options.memLimitMb = campaign.memLimitMb;
            options.hardDeadline = campaign.hardDeadline;
            _pool = std::make_unique<exec::proc::ProcWorkerPool>(
                std::move(options));
            _pool->setMetrics(campaign.metrics);
            _pool->setTraceWriter(campaign.trace);
            _engine.setSimulate(_pool->simulateFn());
        }
    }

    ~CampaignScope()
    {
        // The engine stops dispatching through the pool before the
        // pool (a member) is destroyed.
        _engine.setSimulate(std::move(_previousSimulate));
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
        _engine.setJobObserver(
            bothObservers(_previousObserver, std::move(observer)));
    }

  private:
    std::unique_ptr<exec::SimulationEngine> _ownedEngine;
    exec::SimulationEngine &_engine;
    exec::ResultJournal *_previousJournal;
    obs::MetricsRegistry *_previousMetrics;
    obs::TraceWriter *_previousTrace;
    exec::JobObserver _previousObserver;
    exec::SimulateFn _previousSimulate;
    exec::ProgressSnapshot _progressAtOpen;
    std::unique_ptr<exec::proc::ProcWorkerPool> _pool;
};

/**
 * Per-job sampling CI half-widths in *cycles*, captured from a
 * batch's job events and keyed by job index. Cache and journal hits
 * replay only the response, so their half-width is recorded as zero;
 * failed jobs are not recorded.
 */
class HalfWidthCapture
{
  public:
    /** Observer feeding this capture; must not outlive it. */
    exec::JobObserver observer()
    {
        return [this](const exec::JobEvent &event) {
            if (!event.ok)
                return;
            const double cycles_half =
                event.sampled
                    ? event.sample.ciHalfWidth *
                          static_cast<double>(
                              event.sample.streamInstructions)
                    : 0.0;
            const std::scoped_lock lock(_mutex);
            _byJob[event.jobIndex] = cycles_half;
        };
    }

    /** Captured half-widths; read only after the batch. */
    const std::unordered_map<std::size_t, double> &byJob() const
    {
        return _byJob;
    }

  private:
    std::mutex _mutex;
    std::unordered_map<std::size_t, double> _byJob;
};

/**
 * Reduce a remote campaign's topology to the plain-integer RemotePlan
 * the check layer pre-flights (campaign.no-workers,
 * campaign.lease-shorter-than-deadline,
 * campaign.heartbeat-too-coarse). The lease and heartbeat come from
 * the controller itself, so the pre-flight checks the values the
 * fleet actually runs with. Disabled — and therefore skipped by every
 * analyzer — unless the campaign is remote (netController set).
 */
inline check::RemotePlan
remotePlanFor(const exec::CampaignOptions &campaign)
{
    check::RemotePlan plan;
    if (campaign.netController == nullptr)
        return plan;
    const exec::net::ControllerOptions &net =
        campaign.netController->options();
    plan.enabled = true;
    plan.workers = campaign.remoteWorkers;
    plan.leaseMs = static_cast<std::uint64_t>(net.lease.count());
    plan.heartbeatMs =
        static_cast<std::uint64_t>(net.heartbeat.count());
    plan.attemptDeadlineMs = static_cast<std::uint64_t>(
        campaign.faultPolicy.attemptDeadline.count());
    plan.hardDeadlineMs =
        static_cast<std::uint64_t>(campaign.hardDeadline.count());
    return plan;
}

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
        cell.response = event.response;
        if (event.sampled) {
            cell.sampled = true;
            cell.sampleUnits = event.sample.units;
            cell.sampleRelativeError = event.sample.relativeError;
            cell.sampleCiHalfWidth = event.sample.ciHalfWidth;
        }
        cell.host = event.host;
        manifest->addCell(cell);
    };
}

} // namespace rigor::methodology::detail

#endif // RIGOR_METHODOLOGY_CAMPAIGN_INSTRUMENTATION_HH
