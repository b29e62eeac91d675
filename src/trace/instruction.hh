/**
 * @file
 * Dynamic instruction record consumed by the timing core.
 *
 * One record carries everything the trace-driven model needs: the PC
 * (I-cache / predictor indexing), the operation class (functional-unit
 * routing and latency), source/destination registers (dependence
 * tracking), the effective address of memory operations, branch
 * outcome and target, and the integer operand values that the
 * instruction-precomputation enhancement matches on.
 */

#ifndef RIGOR_TRACE_INSTRUCTION_HH
#define RIGOR_TRACE_INSTRUCTION_HH

#include <cstdint>
#include <string>

namespace rigor::trace
{

/** Operation classes, mirroring the Table 7 functional-unit split. */
enum class OpClass : std::uint8_t
{
    IntAlu,
    IntMult,
    IntDiv,
    FpAlu,
    FpMult,
    FpDiv,
    FpSqrt,
    Load,
    Store,
    Branch,
    Call,
    Return,
};

/** Number of OpClass values (for mix tables). */
constexpr std::size_t numOpClasses = 12;

/** True for loads and stores. */
constexpr bool
isMemOp(OpClass op)
{
    return op == OpClass::Load || op == OpClass::Store;
}

/** True for branches, calls, and returns (control transfers). */
constexpr bool
isControlOp(OpClass op)
{
    return op == OpClass::Branch || op == OpClass::Call ||
           op == OpClass::Return;
}

/** Report name of an op class. */
std::string toString(OpClass op);

/** Architectural register count of the model (PISA-like: 32 int). */
constexpr std::uint8_t numArchRegs = 32;

/** Sentinel for "no register". */
constexpr std::uint8_t noReg = 0xff;

/** One dynamic instruction. */
struct Instruction
{
    std::uint64_t pc = 0;
    OpClass op = OpClass::IntAlu;
    /** Source registers; noReg when unused. */
    std::uint8_t srcA = noReg;
    std::uint8_t srcB = noReg;
    /** Destination register; noReg when none. */
    std::uint8_t dst = noReg;
    /** Effective address (memory operations only). */
    std::uint64_t memAddr = 0;
    /** Actual direction (control operations only). */
    bool taken = false;
    /** Actual target (taken control operations only). */
    std::uint64_t target = 0;
    /**
     * For calls: the address the matching return resumes at (what the
     * return address stack should push). Zero otherwise.
     */
    std::uint64_t retAddr = 0;
    /**
     * Integer operand values. Used by instruction precomputation /
     * value reuse to recognize redundant computations; the timing
     * model itself never interprets them.
     */
    std::uint32_t valA = 0;
    std::uint32_t valB = 0;
};

} // namespace rigor::trace

#endif // RIGOR_TRACE_INSTRUCTION_HH
