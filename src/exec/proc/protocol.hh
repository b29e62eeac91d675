/**
 * @file
 * Wire protocol between the campaign parent and its sandbox workers.
 *
 * One sandbox worker is a forked child connected by two pipes. Every
 * message is a length-prefixed frame (u32 payload size, then the
 * payload), written and read with EINTR-safe full-transfer loops —
 * a short read at a frame boundary is a clean EOF (the peer died or
 * closed), a short read inside a frame is a torn protocol error.
 *
 * Payloads are flat byte buffers built by Writer / consumed by
 * Reader: trivially-copyable values are memcpy'd (ProcessorConfig is
 * statically asserted to qualify), strings are u32-length-prefixed,
 * and WorkloadProfile — which owns a std::string name — is serialized
 * field by field. Both ends are the same binary (fork, no exec), so
 * the format never crosses an ABI boundary and needs no versioning.
 *
 * A JobRequest ships everything one attempt needs and a JobResult
 * brings back its cycles or its classified failure; the attempt codec
 * in sandbox_worker.hh builds, runs and unwraps both. Decoding is
 * strict: a bool byte other than 0 or 1 is a ProtocolError, so a
 * corrupt frame fails loudly instead of decoding as a plausible
 * value.
 */

#ifndef RIGOR_EXEC_PROC_PROTOCOL_HH
#define RIGOR_EXEC_PROC_PROTOCOL_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sample/sampling.hh"
#include "sim/config.hh"
#include "trace/workload_profile.hh"

namespace rigor::exec::proc
{

/** A torn frame or hard pipe I/O error (not a clean peer EOF). */
class ProtocolError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * A frame cut off mid-transfer: the peer died or closed inside a
 * frame instead of at a frame boundary. The message always carries
 * the got/expected byte counts, so a truncated final frame (torn
 * pipe, half-written socket) is diagnosable from the log alone.
 * Shared by the pipe (exec/proc) and TCP (exec/net) transports.
 */
class TruncatedFrame : public ProtocolError
{
    using ProtocolError::ProtocolError;
};

/**
 * Upper bound on one frame's payload. Pipe peers are forked from the
 * same binary and never send more than a JobRequest, but a TCP peer
 * is untrusted input: without the bound, a corrupt or hostile length
 * prefix would make readFrame allocate gigabytes before the first
 * payload byte arrives.
 */
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/**
 * Exit code of a sandbox worker that hit std::bad_alloc so hard it
 * could not allocate a result frame: the parent classifies it as
 * ResourceExhausted without needing any payload.
 */
inline constexpr int kExitOom = 42;

/** How one attempt ended inside the sandbox worker. */
enum class ResultStatus : std::uint8_t
{
    Ok = 0,
    Transient = 1,
    Deadline = 2,
    Resource = 3,
    Permanent = 4,
};

/** Append-only payload builder. */
class Writer
{
  public:
    template <typename T>
    void pod(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const std::size_t at = _bytes.size();
        _bytes.resize(at + sizeof(T));
        std::memcpy(_bytes.data() + at, &value, sizeof(T));
    }

    void str(const std::string &value)
    {
        pod(static_cast<std::uint32_t>(value.size()));
        const std::size_t at = _bytes.size();
        _bytes.resize(at + value.size());
        std::memcpy(_bytes.data() + at, value.data(), value.size());
    }

    const std::vector<std::byte> &bytes() const { return _bytes; }

  private:
    std::vector<std::byte> _bytes;
};

/** Bounds-checked payload consumer; throws ProtocolError on
 *  truncation. */
class Reader
{
  public:
    explicit Reader(const std::vector<std::byte> &bytes)
        : _bytes(bytes)
    {
    }

    template <typename T>
    T pod()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        need(sizeof(T));
        if constexpr (std::is_same_v<T, bool>)
            expectBool(0);
        T value;
        std::memcpy(&value, _bytes.data() + _at, sizeof(T));
        _at += sizeof(T);
        return value;
    }

    std::string str()
    {
        const std::uint32_t size = pod<std::uint32_t>();
        need(size);
        std::string value(
            reinterpret_cast<const char *>(_bytes.data() + _at), size);
        _at += size;
        return value;
    }

    bool done() const { return _at == _bytes.size(); }

    /**
     * Throw ProtocolError unless the byte @p offset past the cursor
     * is 0 or 1. pod<bool> checks itself; a bool member of a memcpy'd
     * struct is checked here before the struct is read, so no
     * decoded bool ever holds an invalid value.
     */
    void expectBool(std::size_t offset) const
    {
        need(offset + 1);
        const auto byte = std::to_integer<unsigned>(_bytes[_at + offset]);
        if (byte > 1)
            throw ProtocolError("invalid bool byte " +
                                std::to_string(byte) + " at offset " +
                                std::to_string(_at + offset));
    }

  private:
    void need(std::size_t n) const
    {
        if (_at + n > _bytes.size())
            throw TruncatedFrame(
                "truncated protocol payload: need " +
                std::to_string(n) + " bytes at offset " +
                std::to_string(_at) + ", only " +
                std::to_string(_bytes.size() - _at) + " remain of " +
                std::to_string(_bytes.size()));
    }

    const std::vector<std::byte> &_bytes;
    std::size_t _at = 0;
};

/** One attempt shipped to a sandbox worker. */
struct JobRequest
{
    trace::WorkloadProfile profile;
    sim::ProcessorConfig config;
    std::uint64_t instructions = 0;
    std::uint64_t warmupInstructions = 0;
    /** Rebuild the enhancement hook via the worker's hook factory. */
    bool hasHook = false;
    /** Failure-context label ("gzip, design row 17"); shipped so
     *  label-keyed fault drills match inside the sandbox too. */
    std::string label;
    /** Attempt identity (mirrors AttemptContext). */
    std::uint64_t jobIndex = 0;
    std::uint32_t attempt = 1;
    /** Cooperative per-attempt deadline; zero = none. */
    std::chrono::milliseconds deadlineBudget{0};
    /** Sampled-simulation schedule (trivially copyable pod). */
    sample::SamplingOptions sampling;

    void serialize(Writer &out) const;
    static JobRequest deserialize(Reader &in);
};

/** One attempt's outcome shipped back to the parent. */
struct JobResult
{
    ResultStatus status = ResultStatus::Permanent;
    /** Measured cycles; meaningful only for Ok. */
    double cycles = 0.0;
    /** Child-side wall seconds of the attempt. */
    double wallSeconds = 0.0;
    /** Failure message; empty for Ok. */
    std::string message;
    /** Sampled-run summary (Ok + a sampled run). On the wire: a
     *  presence bool, then the pod, zeroed when absent. */
    std::optional<sample::SampleSummary> sample;

    void serialize(Writer &out) const;
    static JobResult deserialize(Reader &in);
};

/**
 * Write one frame (u32 length + payload); throws ProtocolError on any
 * I/O failure, including EPIPE from a dead peer (the pool ignores
 * SIGPIPE so the error surfaces here instead of killing the process).
 */
void writeFrame(int fd, const std::vector<std::byte> &payload);

/**
 * Read one frame into @p payload. Returns false on clean EOF at a
 * frame boundary (peer closed or died); throws ProtocolError on a
 * torn frame or hard I/O error.
 */
bool readFrame(int fd, std::vector<std::byte> &payload);

} // namespace rigor::exec::proc

#endif // RIGOR_EXEC_PROC_PROTOCOL_HH
