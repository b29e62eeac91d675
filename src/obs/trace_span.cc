#include "obs/trace_span.hh"

#include <stdexcept>

#include "obs/json.hh"

namespace rigor::obs
{

namespace
{

TraceWriter::ClockFn
steadyClockSinceNow()
{
    const auto epoch = std::chrono::steady_clock::now();
    return [epoch]() -> std::uint64_t {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - epoch)
                .count());
    };
}

} // namespace

TraceWriter::TraceWriter() : _clock(steadyClockSinceNow()) {}

TraceWriter::TraceWriter(ClockFn clock) : _clock(std::move(clock))
{
    if (!_clock)
        throw std::invalid_argument("TraceWriter: null clock");
}

void
TraceWriter::addCompleteEvent(std::string name, std::string category,
                              std::uint64_t start_us,
                              std::uint64_t duration_us,
                              std::uint32_t tid, Args args)
{
    Event event;
    event.phase = 'X';
    event.name = std::move(name);
    event.category = std::move(category);
    event.ts = start_us;
    event.duration = duration_us;
    event.tid = tid;
    event.args = std::move(args);
    const std::scoped_lock lock(_mutex);
    _events.push_back(std::move(event));
}

void
TraceWriter::addCounterEvent(std::string name, std::uint64_t ts_us,
                             double value)
{
    Event event;
    event.phase = 'C';
    event.name = std::move(name);
    event.category = "counter";
    event.ts = ts_us;
    event.value = value;
    const std::scoped_lock lock(_mutex);
    _events.push_back(std::move(event));
}

std::size_t
TraceWriter::eventCount() const
{
    const std::scoped_lock lock(_mutex);
    return _events.size();
}

std::string
TraceWriter::toJson() const
{
    const std::scoped_lock lock(_mutex);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Event &event : _events) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"name\":";
        appendJsonString(out, event.name);
        out += ",\"cat\":";
        appendJsonString(out, event.category);
        out += ",\"ph\":\"";
        out += event.phase;
        out += "\",\"pid\":1,\"tid\":";
        out += std::to_string(event.tid);
        out += ",\"ts\":";
        out += std::to_string(event.ts);
        if (event.phase == 'X') {
            out += ",\"dur\":";
            out += std::to_string(event.duration);
        }
        out += ",\"args\":{";
        if (event.phase == 'C') {
            out += "\"value\":";
            out += jsonNumber(event.value);
        } else {
            bool first_arg = true;
            for (const auto &[key, value] : event.args) {
                if (!first_arg)
                    out += ',';
                first_arg = false;
                appendJsonString(out, key);
                out += ':';
                appendJsonString(out, value);
            }
        }
        out += "}}";
    }
    out += "]}";
    return out;
}

void
TraceWriter::writeTo(const std::string &path) const
{
    writeTextFile(path, toJson() + '\n');
}

TraceSpan::TraceSpan(TraceWriter *writer, std::string name,
                     std::string category, std::uint32_t tid)
    : _writer(writer), _name(std::move(name)),
      _category(std::move(category)), _tid(tid)
{
    if (_writer)
        _start = _writer->nowMicros();
}

TraceSpan::~TraceSpan()
{
    close();
}

void
TraceSpan::arg(std::string key, std::string value)
{
    if (_writer)
        _args.emplace_back(std::move(key), std::move(value));
}

void
TraceSpan::close()
{
    if (!_writer || _closed)
        return;
    _closed = true;
    const std::uint64_t end = _writer->nowMicros();
    _writer->addCompleteEvent(std::move(_name), std::move(_category),
                              _start, end - _start, _tid,
                              std::move(_args));
}

} // namespace rigor::obs
