/**
 * @file
 * In-memory trace source.
 *
 * Wraps an explicit instruction vector — used by unit tests to feed
 * hand-built sequences through the timing core, and handy for users
 * who capture short traces from elsewhere.
 */

#ifndef RIGOR_TRACE_VECTOR_SOURCE_HH
#define RIGOR_TRACE_VECTOR_SOURCE_HH

#include <span>
#include <utility>
#include <vector>

#include "trace/generator.hh"

namespace rigor::trace
{

class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<Instruction> instructions)
        : _instructions(std::move(instructions))
    {
    }

    bool
    next(Instruction &out) override
    {
        if (_pos >= _instructions.size())
            return false;
        out = _instructions[_pos++];
        return true;
    }

    void reset() override { _pos = 0; }

    std::uint64_t
    length() const override
    {
        return _instructions.size();
    }

    /** The whole stream, whatever the read position. */
    std::span<const Instruction>
    instructions() const
    {
        return _instructions;
    }

  private:
    std::vector<Instruction> _instructions;
    std::size_t _pos = 0;
};

} // namespace rigor::trace

#endif // RIGOR_TRACE_VECTOR_SOURCE_HH
