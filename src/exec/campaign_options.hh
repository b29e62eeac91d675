/**
 * @file
 * The shared campaign-execution options of every experiment driver.
 *
 * Before this struct existed, PbExperimentOptions, WorkflowOptions,
 * and the enhancement driver each re-declared the same execution
 * knobs (threads, foldover, skipPreflight, the FaultPolicy, the
 * journal, the shared engine, the degradation mode) — and every new
 * cross-cutting concern had to be added three times. CampaignOptions
 * is the single definition; the per-driver option structs embed one
 * (`options.campaign`) and keep only the knobs that are genuinely
 * theirs (run lengths, hook factories, critical-parameter caps).
 *
 * Where attempts run is one choice per campaign: in-thread, in a
 * forked sandbox pool (isolation = Process), or on a TCP worker fleet
 * (netController set). Fleet tuning — lease, heartbeat, session
 * grace, auth token — lives only in net::ControllerOptions.
 *
 * The observability sinks live here too: attach a MetricsRegistry, a
 * TraceWriter, and/or a CampaignManifest and every driver reports
 * through them — engine counters and per-run histograms into the
 * metrics, phase spans and per-worker job spans into the trace, and
 * design/cell/summary provenance records into the manifest. All sink
 * pointers are optional and not owned; null disables that sink with
 * zero overhead on the simulation fast path.
 */

#ifndef RIGOR_EXEC_CAMPAIGN_OPTIONS_HH
#define RIGOR_EXEC_CAMPAIGN_OPTIONS_HH

#include <chrono>
#include <cstdint>

#include "check/campaign_check.hh"
#include "exec/fault_policy.hh"
#include "exec/isolation.hh"
#include "sample/sampling.hh"
#include "stats/bootstrap.hh"

namespace rigor::obs
{
class MetricsRegistry;
class TraceWriter;
class CampaignManifest;
} // namespace rigor::obs

namespace rigor::exec
{

class SimulationEngine;
class ResultJournal;

namespace net
{
class CampaignController;
} // namespace net

/** Execution knobs shared by every experiment driver. */
struct CampaignOptions
{
    /** Worker threads; 0 = hardware concurrency. Ignored when a
     *  shared engine is supplied (its pool is used instead). */
    unsigned threads = 0;
    /** Use the foldover design (2X runs) as the paper does. Drivers
     *  without a screening design ignore it. */
    bool foldover = true;
    /**
     * Escape hatch: skip the mandatory pre-flight static analysis
     * (design matrix, Tables 6-8 parameter space, workload profiles,
     * run lengths). Only for deliberately out-of-spec studies; the
     * resulting rank tables carry no statistical guarantee.
     */
    bool skipPreflight = false;
    /**
     * Per-job fault policy: bounded retries with exponential backoff
     * for transient faults, a cooperative per-attempt deadline that
     * converts hung simulations into diagnosable timeouts, and —
     * with collectFailures — quarantine instead of fail-fast. The
     * default is the historical fail-fast single attempt.
     */
    FaultPolicy faultPolicy;
    /**
     * Optional crash-safe result journal (not owned; must outlive
     * the call). Attached to the engine for the duration of the
     * experiment: every completed run is persisted with an fsync,
     * and a rerun against the same journal replays completed runs
     * from disk instead of re-simulating them (campaign resume).
     */
    ResultJournal *journal = nullptr;
    /**
     * Optional shared execution engine (not owned). Sharing one
     * engine across experiments shares its run cache — the paper's
     * enhancement analysis re-runs the base experiment verbatim, and
     * the workflow's screen and factorial overlap — and aggregates
     * the progress counters. When null, a private engine with
     * `threads` workers is used.
     */
    SimulationEngine *engine = nullptr;
    /**
     * What to do when quarantined cells leave a benchmark's response
     * column incomplete (only reachable with
     * faultPolicy.collectFailures): refuse to degrade (Abort, the
     * default — throws check::CampaignError), or drop affected
     * benchmarks whole and label the reduced rank table.
     */
    check::DegradationMode degradation =
        check::DegradationMode::Abort;

    /**
     * Where a local campaign's simulation attempts execute. Thread
     * (the default) runs them in-process on the engine's workers;
     * Process ships each attempt to a forked sandbox worker
     * (exec/proc/), so a SIGSEGV, OOM kill, or non-cooperative hang
     * costs one attempt of one job instead of the campaign. See
     * exec/isolation.hh. Ignored when netController is set.
     *
     * The top-level driver call picks the executor once per campaign
     * from this field and netController, and every phase of a
     * multi-phase driver (workflow screen + factorial, enhancement
     * base + enhanced legs, adaptive rounds, replicates) runs on it:
     * a sandbox pool forks once per campaign.
     */
    IsolationMode isolation = IsolationMode::Thread;
    /** Process isolation: per-worker RLIMIT_AS cap in MiB
     *  (0 = unlimited). Ignored under thread isolation. */
    std::uint64_t memLimitMb = 0;
    /**
     * Process isolation: hard per-attempt deadline — the pool's
     * watchdog SIGKILLs a sandbox worker busy past it, no cooperation
     * needed (the complement of faultPolicy.attemptDeadline, which is
     * polled cooperatively and still applies inside the sandbox).
     * Zero disables. A remote campaign's pre-flight also checks it
     * against the controller's lease.
     */
    std::chrono::milliseconds hardDeadline{0};

    /**
     * Remote execution: the lease-granting controller that shards
     * cells across the TCP worker fleet (not owned; must outlive the
     * call). A campaign is remote exactly when this is set; the
     * controller's own ControllerOptions hold the lease, heartbeat,
     * session grace and auth token, and the pre-flight reads the
     * lease and heartbeat from there.
     */
    net::CampaignController *netController = nullptr;
    /**
     * Remote execution: worker count the campaign expects to be
     * served by (pre-flight rule campaign.no-workers rejects 0 — a
     * remote campaign with no fleet would queue cells forever).
     */
    unsigned remoteWorkers = 0;

    /**
     * SMARTS-style sampled simulation (see sample/sampling.hh). When
     * enabled, every run simulates only periodic units in detail —
     * detailed warm-up, measured unit, functional fast-forward — and
     * reports an extrapolated response with a per-run CPI confidence
     * interval instead of paying for the full stream.
     */
    sample::SamplingOptions sampling;

    /**
     * Workload-generation replication (see stats/bootstrap.hh and
     * methodology/rank_stability.hh). When enabled (replicates >= 1),
     * runReplicatedPbExperiment re-runs every benchmark under R
     * independently seeded workload realizations and bootstraps
     * confidence intervals over the resulting rank tables; the
     * pre-flight rejects plans below the configured replicate floor
     * (campaign.under-replicated). Disabled (0) keeps the historical
     * single-realization behavior.
     */
    stats::ReplicationOptions replication;

    /** Optional metrics sink (not owned): engine counters, per-run
     *  wall-time and throughput histograms, queue/steal stats. */
    obs::MetricsRegistry *metrics = nullptr;
    /** Optional Chrome trace sink (not owned): one span per driver
     *  phase, one span per simulated job on its worker lane. */
    obs::TraceWriter *trace = nullptr;
    /** Optional JSONL manifest sink (not owned): design identity,
     *  one record per (benchmark, row) cell, terminal summary. */
    obs::CampaignManifest *manifest = nullptr;
};

} // namespace rigor::exec

#endif // RIGOR_EXEC_CAMPAIGN_OPTIONS_HH
