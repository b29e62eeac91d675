#include "exec/fault_policy.hh"

#include <cstdio>

namespace rigor::exec
{

std::string
toString(FailureKind kind)
{
    switch (kind) {
      case FailureKind::Transient:
        return "transient";
      case FailureKind::Permanent:
        return "permanent";
      case FailureKind::Timeout:
        return "timeout";
      case FailureKind::Resource:
        return "resource";
    }
    return "?";
}

void
AttemptContext::checkDeadline() const
{
    if (expired())
        throw DeadlineExceeded(
            "attempt deadline of " +
            std::to_string(deadlineBudget.count()) + " ms exceeded");
}

std::string
JobFailure::toString() const
{
    char elapsed[32];
    std::snprintf(elapsed, sizeof(elapsed), "%.3f", elapsedSeconds);
    return "job '" + label + "' failed (" + exec::toString(kind) +
           ") after " + std::to_string(attempts) +
           (attempts == 1 ? " attempt" : " attempts") + " in " +
           elapsed + " s: " + message;
}

} // namespace rigor::exec
