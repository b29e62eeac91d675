#include "exec/journal.hh"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

namespace rigor::exec
{

namespace
{

constexpr const char *kHeader = "rigor-journal v2";

/** Visit a SampleSummary's fields in record order. */
template <typename Summary, typename Visit>
void
forEachField(Summary &s, Visit &&visit)
{
    visit(s.units);
    visit(s.detailedInstructions);
    visit(s.measuredInstructions);
    visit(s.streamInstructions);
    visit(s.cpiMean);
    visit(s.cpiStddev);
    visit(s.ciHalfWidth);
    visit(s.relativeError);
    visit(s.estimatedCycles);
}

/** Append ' ' and the shortest round-trip rendering of @p value. */
template <typename T>
void
appendField(std::string &line, T value)
{
    char buffer[64];
    const std::to_chars_result res =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    line += ' ';
    line.append(buffer, res.ptr);
}

/** Parse one whole field; a double must be finite and >= 0 (an
 *  unsigned field already rejects a sign). */
template <typename T>
bool
parseField(const std::string &text, T &out)
{
    const std::from_chars_result res =
        std::from_chars(text.data(), text.data() + text.size(), out);
    if (res.ec != std::errc{} || res.ptr != text.data() + text.size())
        return false;
    if constexpr (std::is_floating_point_v<T>)
        return std::isfinite(out) && out >= 0.0;
    return true;
}

/** Decode one record line; nullopt when it is torn or corrupt. */
std::optional<std::pair<std::string, CellResult>>
decodeRecord(const std::string &line)
{
    std::istringstream in(line);
    std::string tag, key, field;
    bool ok = (in >> tag >> key) && tag == "r";
    const auto next = [&](auto &value) {
        ok = ok && (in >> field) && parseField(field, value);
    };
    CellResult result;
    next(result.cycles);
    if (ok && !(in >> std::ws).eof()) {
        sample::SampleSummary summary;
        forEachField(summary, next);
        ok = ok && summary.estimatedCycles == result.cycles;
        result.sample = summary;
    }
    if (!ok || !(in >> std::ws).eof())
        return std::nullopt;
    return std::pair{std::move(key), std::move(result)};
}

bool
hasWhitespace(const std::string &s)
{
    return s.find_first_of(" \t\n\r") != std::string::npos;
}

} // namespace

bool
fsyncParentDirectory(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd =
        ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

ResultJournal::ResultJournal(std::string path)
    : _path(std::move(path)),
      _appendsUntilCrash(std::numeric_limits<std::size_t>::max())
{
    std::string existing;
    {
        std::ifstream in(_path, std::ios::binary);
        if (in) {
            std::ostringstream buffer;
            buffer << in.rdbuf();
            existing = buffer.str();
        }
    }
    if (!existing.empty())
        loadExisting(existing);

    _fd = ::open(_path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (_fd < 0)
        throw std::runtime_error("ResultJournal: cannot open '" +
                                 _path + "': " + std::strerror(errno));
    if (existing.empty()) {
        const std::string header = std::string(kHeader) + '\n';
        if (::write(_fd, header.data(), header.size()) !=
            static_cast<ssize_t>(header.size())) {
            ::close(_fd);
            throw std::runtime_error(
                "ResultJournal: cannot write header to '" + _path +
                "'");
        }
        ::fsync(_fd);
        // The file's data is durable, but on a fresh creation the
        // *name* lives in the directory — fsync that too, or a crash
        // right here can leave a journal nobody can find to resume.
        fsyncParentDirectory(_path);
    }
}

ResultJournal::~ResultJournal()
{
    if (_fd >= 0)
        ::close(_fd);
}

void
ResultJournal::loadExisting(const std::string &text)
{
    std::size_t pos = 0;
    bool first = true;
    while (pos < text.size()) {
        const std::size_t newline = text.find('\n', pos);
        if (newline == std::string::npos) {
            // Un-terminated final line: the write a crash interrupted.
            ++_tornRecords;
            break;
        }
        const std::string line = text.substr(pos, newline - pos);
        pos = newline + 1;

        if (first) {
            first = false;
            if (line != kHeader)
                throw std::runtime_error(
                    "ResultJournal: '" + _path +
                    "' is not a rigor journal (bad header)");
            continue;
        }
        if (line.empty())
            continue;

        auto record = decodeRecord(line);
        if (!record) {
            ++_tornRecords;
            continue;
        }
        if (_records.try_emplace(std::move(record->first),
                                 std::move(record->second))
                .second)
            ++_loadedRecords;
        else
            ++_duplicateRecords;
    }
}

std::size_t
ResultJournal::size() const
{
    const std::scoped_lock lock(_mutex);
    return _records.size();
}

std::optional<CellResult>
ResultJournal::lookup(const RunKey &key) const
{
    const std::scoped_lock lock(_mutex);
    const auto it = _records.find(key.toString());
    if (it == _records.end())
        return std::nullopt;
    return it->second;
}

void
ResultJournal::append(const RunKey &key, const CellResult &result)
{
    if (hasWhitespace(key.workload) || hasWhitespace(key.hookId))
        throw std::invalid_argument(
            "ResultJournal::append: workload/hook identity must not "
            "contain whitespace");

    const std::scoped_lock lock(_mutex);
    const std::string composed = key.toString();
    if (_records.contains(composed))
        return; // first record wins, matching the RunCache

    std::string line = "r " + composed;
    appendField(line, result.cycles);
    if (result.sample)
        forEachField(*result.sample,
                     [&line](auto value) { appendField(line, value); });
    line += '\n';

    if (_appendsUntilCrash == 0) {
        // Crash drill: leave the torn on-disk state a real mid-write
        // crash would — a record prefix with no terminating newline —
        // then die. Only the first firing writes; later appends of a
        // "dead" journal just keep throwing.
        if (!_crashFired) {
            _crashFired = true;
            const std::size_t torn = line.size() / 2;
            (void)!::write(_fd, line.data(), torn);
            ::fsync(_fd);
        }
        throw SimulatedCrash(
            "ResultJournal: simulated crash while appending to '" +
            _path + "'");
    }

    if (::write(_fd, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size()))
        throw BatchAbort("ResultJournal: write to '" + _path +
                         "' failed: " + std::strerror(errno));
    if (::fsync(_fd) != 0)
        throw BatchAbort("ResultJournal: fsync of '" + _path +
                         "' failed: " + std::strerror(errno));

    _records.emplace(composed, result);
    if (_appendsUntilCrash !=
        std::numeric_limits<std::size_t>::max())
        --_appendsUntilCrash;
}

void
ResultJournal::simulateCrashAfter(std::size_t appends)
{
    const std::scoped_lock lock(_mutex);
    _appendsUntilCrash = appends;
}

} // namespace rigor::exec
