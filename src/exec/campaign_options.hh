/**
 * @file
 * The shared campaign-execution options of every experiment driver.
 *
 * Before this struct existed, PbExperimentOptions, WorkflowOptions,
 * and the enhancement driver each re-declared the same execution
 * knobs (threads, foldover, skipPreflight, the FaultPolicy, the
 * journal, the shared engine, the degradation mode) — and every new
 * cross-cutting concern had to be added three times. CampaignOptions
 * is the single definition. PbExperimentOptions embeds one
 * (`options.campaign`) next to the run lengths; WorkflowOptions,
 * RankStabilityOptions and AdaptiveSamplingOptions embed a
 * PbExperimentOptions (`options.base`) and add only their own knobs
 * (the critical-parameter cap, the replication plan, the refinement
 * rounds). A leg's enhancement hook and manifest name are arguments
 * of the one leg runner, not options.
 *
 * Where attempts run is not a campaign option: it is the engine's
 * attempt executor (EngineOptions::simulate /
 * SimulationEngine::setSimulate). A program that owns a sandbox pool
 * attaches its simulateFn() to the engine it passes here, and every
 * phase of the campaign runs on it.
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

#include "check/campaign_check.hh"
#include "exec/fault_policy.hh"
#include "sample/sampling.hh"

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
     * Per-job fault policy: bounded retries for transient faults, a
     * cooperative per-attempt deadline that converts hung
     * simulations into diagnosable timeouts, and — with
     * collectFailures — quarantine instead of fail-fast. The default
     * is the historical fail-fast single attempt.
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
     * SMARTS-style sampled simulation (see sample/sampling.hh). When
     * enabled, every run simulates only periodic units in detail —
     * detailed warm-up, measured unit, functional fast-forward — and
     * reports an extrapolated response with a per-run CPI confidence
     * interval instead of paying for the full stream.
     */
    sample::SamplingOptions sampling;

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
