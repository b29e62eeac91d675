/**
 * @file
 * Static analysis of processor configurations and the PB parameter
 * space against the linked-parameter rules of the paper's Tables 6-8.
 *
 * ProcessorConfig derives most of the tables' "shaded" parameters
 * itself (unpipelined units issue at their latency, the
 * following-block memory latency is 2% of the first block, the D-TLB
 * takes the I-TLB's page size and miss latency) and holds what the
 * tables fix as constants, so those links cannot break. What a
 * configuration can still get wrong — an LSQ/ROB ratio outside the
 * link's range, a cache geometry the model cannot index — still
 * simulates, but no longer measures the machine the design claims to
 * vary. These checks reject such configurations, and audit every
 * Factor's low/high pair (level ordering, dummy inertness) before a
 * run.
 */

#ifndef RIGOR_CHECK_CONFIG_CHECK_HH
#define RIGOR_CHECK_CONFIG_CHECK_HH

#include "check/diagnostic.hh"
#include "methodology/parameter_space.hh"
#include "sim/config.hh"

namespace rigor::check
{

/**
 * Check one configuration: core validity (power-of-two cache
 * geometry, non-zero resources) plus the Tables 6-8 linked-parameter
 * invariants (LSQ/ROB ratio in (0, 1], L2 blocks covering L1
 * blocks). Returns true when this call reported no error.
 */
bool checkProcessorConfig(const sim::ProcessorConfig &config,
                          DiagnosticSink &sink,
                          const SourceContext &base = {});

/**
 * Check one factor's low/high level pair: both levels must yield
 * valid configurations, a real factor's levels must differ with the
 * low level on the performance-adverse side ("low < high" in the
 * tables' resource ordering), and a dummy factor must be inert.
 * Returns true when this call reported no error.
 */
bool checkFactorLevelPair(methodology::Factor factor,
                          DiagnosticSink &sink,
                          const SourceContext &base = {});

/**
 * Audit the entire built-in parameter space: every factor's level
 * pair via checkFactorLevelPair(). Guards the compiled-in Tables 6-8
 * against regressions and is cheap enough to run per experiment.
 * Returns true when this call reported no error.
 */
bool checkParameterSpace(DiagnosticSink &sink,
                         const SourceContext &base = {});

} // namespace rigor::check

#endif // RIGOR_CHECK_CONFIG_CHECK_HH
