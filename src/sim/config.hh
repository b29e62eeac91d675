/**
 * @file
 * Full configuration surface of the superscalar processor model.
 *
 * Every user-configurable parameter of the paper's Tables 6 (core),
 * 7 (functional units), and 8 (memory hierarchy) appears here,
 * including the "shaded" linked parameters whose values are derived
 * from a related parameter (LSQ entries from ROB entries, divide
 * throughputs from divide latencies, following-block memory latency
 * from first-block latency, D-TLB page size / latency from the I-TLB).
 */

#ifndef RIGOR_SIM_CONFIG_HH
#define RIGOR_SIM_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace rigor::sim
{

/**
 * Direction predictor choices: Table 6 varies 2-Level vs Perfect.
 * The values are explicit because ProcessorConfig::hash() mixes them
 * into persisted run keys (journals, manifests), so they never move.
 */
enum class BranchPredictorKind
{
    TwoLevel = 0,
    Perfect = 4,
};

/** When the branch predictor's history is updated (Table 6). */
enum class BranchUpdateTiming
{
    InCommit,
    InDecode,
};

/** Geometry and timing of one cache level. Every cache, TLB and the
 *  BTB replace LRU, as in Table 8. */
struct CacheGeometry
{
    /** Total capacity in bytes. */
    std::uint32_t sizeBytes = 0;
    /** Ways per set; 0 means fully associative. */
    std::uint32_t assoc = 1;
    /** Line size in bytes (power of two). */
    std::uint32_t blockBytes = 32;
    /** Hit latency in cycles. */
    std::uint32_t latency = 1;

    std::uint32_t numBlocks() const { return sizeBytes / blockBytes; }
    std::uint32_t effectiveAssoc() const
    {
        return assoc == 0 ? numBlocks() : assoc;
    }
    std::uint32_t numSets() const
    {
        return numBlocks() / effectiveAssoc();
    }

    bool operator==(const CacheGeometry &) const = default;
};

/** Geometry and timing of one TLB. */
struct TlbGeometry
{
    std::uint32_t entries = 32;
    /** Page size in bytes. */
    std::uint64_t pageBytes = 4096;
    /** Ways per set; 0 means fully associative. */
    std::uint32_t assoc = 2;
    /** Miss penalty in cycles (hits are overlapped with cache access). */
    std::uint32_t missLatency = 30;

    std::uint32_t effectiveAssoc() const
    {
        return assoc == 0 ? entries : assoc;
    }
    std::uint32_t numSets() const { return entries / effectiveAssoc(); }

    bool operator==(const TlbGeometry &) const = default;
};

/**
 * Complete processor configuration. Defaults form a "typical"
 * middle-of-the-road 4-way superscalar, roughly an Alpha 21264-class
 * machine; the PB parameter space of methodology/parameter_space.hh
 * overrides fields with the deliberately-extreme low/high values of
 * Tables 6-8.
 */
struct ProcessorConfig
{
    // ----- Processor core (Table 6) -----
    std::uint32_t ifqEntries = 16;
    BranchPredictorKind bpred = BranchPredictorKind::TwoLevel;
    std::uint32_t bpredPenalty = 5;
    std::uint32_t rasEntries = 16;
    std::uint32_t btbEntries = 128;
    /** 0 = fully associative. */
    std::uint32_t btbAssoc = 2;
    BranchUpdateTiming specBranchUpdate = BranchUpdateTiming::InCommit;
    /** Decode, issue, and commit width; the paper fixes this at 4. */
    std::uint32_t machineWidth = 4;
    std::uint32_t robEntries = 32;
    /** LSQ entries = lsqRatio * robEntries (shaded link in Table 6). */
    double lsqRatio = 0.5;
    std::uint32_t memPorts = 2;

    // ----- Functional units (Table 7) -----
    std::uint32_t intAlus = 2;
    std::uint32_t intAluLatency = 1;
    std::uint32_t intAluThroughput = 1;
    std::uint32_t fpAlus = 2;
    std::uint32_t fpAluLatency = 2;
    std::uint32_t fpAluThroughput = 1;
    std::uint32_t intMultDivUnits = 1;
    std::uint32_t intMultLatency = 7;
    std::uint32_t intDivLatency = 30;
    std::uint32_t intMultThroughput = 1;
    // Int divide throughput is linked to its latency (unpipelined).
    std::uint32_t fpMultDivUnits = 1;
    std::uint32_t fpMultLatency = 4;
    std::uint32_t fpDivLatency = 20;
    std::uint32_t fpSqrtLatency = 25;
    // FP multiply/divide/sqrt throughputs are linked to the latencies.

    // ----- Memory hierarchy (Table 8) -----
    /**
     * Next-line instruction prefetch: on every I-fetch the following
     * cache block is pulled toward L1I in the background. Off by
     * default (the paper's machine has no prefetcher); used by the
     * enhancement-analysis examples as a second case study.
     */
    bool l1iNextLinePrefetch = false;

    CacheGeometry l1i{16 * 1024, 2, 32, 1};
    CacheGeometry l1d{16 * 1024, 4, 32, 2};
    CacheGeometry l2{1024 * 1024, 4, 64, 10};
    std::uint32_t memLatencyFirst = 100;
    std::uint32_t memBandwidthBytes = 16;
    TlbGeometry itlb{64, 4096, 4, 50};
    TlbGeometry dtlb{128, 4096, 4, 50};

    // ----- Linked (derived) parameters -----

    /** LSQ entries derived from the ROB (Table 6 shading). */
    std::uint32_t lsqEntries() const;

    /** Unpipelined integer divide: issue interval = latency. */
    std::uint32_t intDivThroughput() const { return intDivLatency; }

    /** Unpipelined FP multiply/divide/sqrt (Table 7 shading). */
    std::uint32_t fpMultThroughput() const { return fpMultLatency; }
    std::uint32_t fpDivThroughput() const { return fpDivLatency; }
    std::uint32_t fpSqrtThroughput() const { return fpSqrtLatency; }

    /**
     * Inter-chunk ("following block") memory latency: 0.02 x the
     * first-block latency (Table 8 shading), at least one cycle.
     */
    std::uint32_t memLatencyFollowing() const;

    /**
     * Sanity-check the configuration; throws std::invalid_argument
     * with a description of the first problem found. Also rejects an
     * enum field outside its named values, since the sandbox memcpys a
     * config off its pipe.
     */
    void validate() const;

    /** Human-readable multi-line dump for reports. */
    std::string toString() const;

    /** Memberwise equality (run-cache key comparisons). */
    bool operator==(const ProcessorConfig &) const = default;

    /**
     * Stable memberwise hash covering every configurable field, so
     * two configurations hash equally iff they would simulate
     * identically. Used by exec::RunCache to memoize simulation runs.
     */
    std::size_t hash() const;
};

/** Name helpers for report output. */
std::string toString(BranchPredictorKind kind);
std::string toString(BranchUpdateTiming timing);

} // namespace rigor::sim

#endif // RIGOR_SIM_CONFIG_HH
