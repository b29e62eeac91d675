/**
 * @file
 * Statistical workload profile driving the synthetic trace generator.
 *
 * SPEC 2000 binaries and MinneSPEC inputs are not redistributable, so
 * (per DESIGN.md) each of the paper's 13 workloads is replaced by a
 * statistical profile in the spirit of the HLS approach [Oskin00] the
 * paper cites: instruction mix, basic-block geometry, branch
 * predictability, instruction/data footprints and access-pattern
 * mixtures, call depth, and value locality. The Plackett-Burman
 * ranking depends on each workload's *relative* stress on processor
 * components, which these parameters control directly.
 */

#ifndef RIGOR_TRACE_WORKLOAD_PROFILE_HH
#define RIGOR_TRACE_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>

namespace rigor::trace
{

/** Everything the generator needs to synthesize one benchmark. */
struct WorkloadProfile
{
    std::string name;
    /** True for the floating-point benchmarks of Table 5. */
    bool isFloatingPoint = false;
    /** Dynamic instruction count the paper simulated, in millions
     *  (Table 5; used for reports, not for generation). */
    double paperInstructionsMillions = 0.0;

    // ----- Instruction mix (fractions of non-control instructions;
    //       the remainder is integer ALU work) -----
    double fracLoad = 0.25;
    double fracStore = 0.10;
    double fracIntMult = 0.01;
    double fracIntDiv = 0.002;
    double fracFpAlu = 0.0;
    double fracFpMult = 0.0;
    double fracFpDiv = 0.0;
    double fracFpSqrt = 0.0;

    // ----- Control flow -----
    /** Mean instructions per basic block, excluding the terminator. */
    double avgBlockInstrs = 6.0;
    /** Probability a conditional branch is taken. */
    double takenBias = 0.6;
    /** Fraction of branches with stable, learnable behavior. */
    double branchPredictability = 0.85;
    /** Probability a region transition is a call (exercises the RAS). */
    double callFraction = 0.05;
    /** Mean call nesting depth. */
    double avgCallDepth = 4.0;

    // ----- Instruction footprint -----
    /** Static code size in bytes (I-cache / I-TLB stress). */
    std::uint64_t codeFootprintBytes = 64 * 1024;
    /**
     * Steady-state instruction working set: control flow stays inside
     * a hot subset of this many bytes of the code (Zipf-weighted, so
     * reuse is graded). This is what the I-cache size parameter
     * actually contends with; code beyond it is never reached. Must
     * not exceed codeFootprintBytes.
     */
    std::uint64_t hotCodeBytes = 8 * 1024;

    // ----- Data footprint and access patterns -----
    /** Data working set in bytes (D-cache / L2 / memory stress). */
    std::uint64_t dataFootprintBytes = 512 * 1024;
    /** Fraction of accesses concentrated in a hot 1/16 of the data. */
    double hotDataFraction = 0.7;
    /** Per static memory slot: probability of pointer-chase pattern. */
    double fracPointerChase = 0.2;
    /** Per static memory slot: probability of a strided stream. */
    double fracStrided = 0.3;
    /** Stride of the strided streams, in bytes. */
    std::uint32_t strideBytes = 64;

    // ----- Values and parallelism -----
    /** Probability an int ALU op draws operands from a hot pool —
     *  the redundancy that instruction precomputation exploits. */
    double valueLocality = 0.3;
    /** Mean register dependence distance (higher = more ILP). */
    double avgDependencyDistance = 3.0;

    /**
     * Check all fractions and ranges; throws std::invalid_argument on
     * the first inconsistency.
     */
    void validate() const;

    /** Fraction of non-control instructions that are integer ALU. */
    double fracIntAlu() const;

    /** Field-wise: equal profiles generate identical streams. */
    bool operator==(const WorkloadProfile &) const = default;
};

} // namespace rigor::trace

#endif // RIGOR_TRACE_WORKLOAD_PROFILE_HH
