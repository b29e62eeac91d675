/**
 * @file
 * The Plackett-Burman parameter space of the paper's Tables 6-8.
 *
 * Forty-one real processor parameters plus two dummy factors, giving
 * N = 43 factors — which is why the paper uses an X = 44 design
 * (88 simulations with foldover). Every factor maps a +1/-1 level to
 * the exact low/high value the paper lists, and the "shaded" linked
 * parameters are derived rather than varied independently:
 *
 *  - LSQ entries = {0.25, 1.0} x ROB entries,
 *  - integer divide and FP multiply/divide/sqrt throughputs equal
 *    their latencies (unpipelined units),
 *  - following-block memory latency = 0.02 x first-block latency,
 *  - D-TLB page size and latency equal the I-TLB's,
 *  - decode/issue/commit width fixed at 4.
 */

#ifndef RIGOR_METHODOLOGY_PARAMETER_SPACE_HH
#define RIGOR_METHODOLOGY_PARAMETER_SPACE_HH

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "doe/design_matrix.hh"
#include "sim/config.hh"

namespace rigor::methodology
{

/**
 * The 43 factors in Tables 6-8 order (dummies last). Table 9 orders
 * rows by result rank; this enum is the *input* order, i.e. the
 * column assignment in the design matrix.
 */
enum class Factor : unsigned
{
    // Table 6 — processor core
    IfqEntries = 0,
    BpredType,
    BpredPenalty,
    RasEntries,
    BtbEntries,
    BtbAssoc,
    SpecBranchUpdate,
    RobEntries,
    LsqRatio,
    MemPorts,
    // Table 7 — functional units
    IntAlus,
    IntAluLatency,
    FpAlus,
    FpAluLatency,
    IntMultDivUnits,
    IntMultLatency,
    IntDivLatency,
    FpMultDivUnits,
    FpMultLatency,
    FpDivLatency,
    FpSqrtLatency,
    // Table 8 — memory hierarchy
    L1iSize,
    L1iAssoc,
    L1iBlockSize,
    L1iLatency,
    L1dSize,
    L1dAssoc,
    L1dBlockSize,
    L1dLatency,
    L2Size,
    L2Assoc,
    L2BlockSize,
    L2Latency,
    MemLatencyFirst,
    MemBandwidth,
    ItlbSize,
    ItlbPageSize,
    ItlbAssoc,
    ItlbLatency,
    DtlbSize,
    DtlbAssoc,
    // Dummy factors — estimate the design's noise floor
    DummyFactor1,
    DummyFactor2,
};

/** Total factor count (41 parameters + 2 dummies). */
constexpr unsigned numFactors = 43;

/** Real (non-dummy) parameter count. */
constexpr unsigned numRealParameters = 41;

/** Name and level descriptions of one factor (for Tables 6-8). */
struct ParameterDef
{
    Factor factor;
    std::string name;
    std::string lowValue;
    std::string highValue;
};

/** All 43 definitions, in Factor order. */
std::span<const ParameterDef> parameterDefinitions();

/** Display name of a factor. */
const std::string &factorName(Factor f);

/** Factor names as a vector (design-matrix column labels). */
std::vector<std::string> factorNames();

/**
 * Build the processor configuration for one design row.
 *
 * @param levels one level per factor (>= 43 entries; extra design
 *        columns are ignored as additional dummies)
 */
sim::ProcessorConfig configForLevels(std::span<const doe::Level> levels);

/** Convenience: configuration with every factor at one level. */
sim::ProcessorConfig uniformConfig(doe::Level level);

/**
 * Apply one factor's Table 6-8 low/high value onto an existing
 * configuration (dummy factors are no-ops). Linked parameters are
 * derived by ProcessorConfig itself.
 */
void applyFactorLevel(sim::ProcessorConfig &config, Factor factor,
                      doe::Level level);

/**
 * A typical (middle-of-the-road) configuration with selected factors
 * overridden to their Table 6-8 low/high values — the paper's step 3:
 * study the critical parameters around an otherwise reasonable
 * machine.
 */
sim::ProcessorConfig configWithOverrides(
    const std::vector<std::pair<Factor, doe::Level>> &overrides);

} // namespace rigor::methodology

#endif // RIGOR_METHODOLOGY_PARAMETER_SPACE_HH
