/**
 * @file
 * The thirteen SPEC 2000 workload profiles of the paper's Table 5.
 *
 * Each profile is a synthetic stand-in tuned to the qualitative
 * behavior the literature (and the paper's own Table 9 commentary)
 * reports for that benchmark: mesa's large instruction footprint and
 * branch dependence, art's and mcf's memory-boundedness, gcc's and
 * vortex's code-footprint pressure, gzip's and bzip2's compute-bound
 * value-local loops, and so on. DESIGN.md records this substitution.
 */

#ifndef RIGOR_TRACE_WORKLOADS_HH
#define RIGOR_TRACE_WORKLOADS_HH

#include <span>
#include <vector>

#include "trace/workload_profile.hh"

namespace rigor::trace
{

/** All thirteen profiles, in the row order of Table 5. */
std::span<const WorkloadProfile> spec2000Workloads();

/** Look up a profile by name; throws std::invalid_argument if absent. */
const WorkloadProfile &workloadByName(const std::string &name);

} // namespace rigor::trace

#endif // RIGOR_TRACE_WORKLOADS_HH
