#include "exec/isolation.hh"

namespace rigor::exec
{

std::string
toString(IsolationMode mode)
{
    switch (mode) {
      case IsolationMode::Thread:
        return "thread";
      case IsolationMode::Process:
        return "process";
    }
    return "?";
}

} // namespace rigor::exec
