#include "trace/instruction.hh"

namespace rigor::trace
{

std::string
toString(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:
        return "int-alu";
      case OpClass::IntMult:
        return "int-mult";
      case OpClass::IntDiv:
        return "int-div";
      case OpClass::FpAlu:
        return "fp-alu";
      case OpClass::FpMult:
        return "fp-mult";
      case OpClass::FpDiv:
        return "fp-div";
      case OpClass::FpSqrt:
        return "fp-sqrt";
      case OpClass::Load:
        return "load";
      case OpClass::Store:
        return "store";
      case OpClass::Branch:
        return "branch";
      case OpClass::Call:
        return "call";
      case OpClass::Return:
        return "return";
    }
    return "?";
}

} // namespace rigor::trace
