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

bool
parseIsolationMode(const std::string &text, IsolationMode &mode)
{
    if (text == "thread") {
        mode = IsolationMode::Thread;
        return true;
    }
    if (text == "process") {
        mode = IsolationMode::Process;
        return true;
    }
    return false;
}

} // namespace rigor::exec
