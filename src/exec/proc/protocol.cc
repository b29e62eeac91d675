#include "exec/proc/protocol.hh"

#include <cerrno>
#include <cstddef>
#include <cstring>

#include <unistd.h>

namespace rigor::exec::proc
{

namespace
{

/** Write exactly @p size bytes, riding out EINTR and short writes. */
void
writeAll(int fd, const void *data, std::size_t size)
{
    const char *at = static_cast<const char *>(data);
    while (size > 0) {
        const ssize_t n = ::write(fd, at, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ProtocolError(std::string("sandbox pipe write: ") +
                                std::strerror(errno));
        }
        at += n;
        size -= static_cast<std::size_t>(n);
    }
}

/**
 * Read up to @p size bytes, stopping early only at EOF. Returns the
 * byte count actually transferred so the caller can distinguish a
 * clean EOF at a frame boundary (0 of n) from a truncated frame
 * (0 < got < n) and report the offending counts; throws
 * ProtocolError only on a hard I/O error.
 */
std::size_t
readUpTo(int fd, void *data, std::size_t size)
{
    char *at = static_cast<char *>(data);
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::read(fd, at + got, size - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ProtocolError(std::string("sandbox pipe read: ") +
                                std::strerror(errno));
        }
        if (n == 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    return got;
}

void
writeProfile(Writer &out, const trace::WorkloadProfile &p)
{
    out.str(p.name);
    out.pod(p.isFloatingPoint);
    out.pod(p.paperInstructionsMillions);
    out.pod(p.fracLoad);
    out.pod(p.fracStore);
    out.pod(p.fracIntMult);
    out.pod(p.fracIntDiv);
    out.pod(p.fracFpAlu);
    out.pod(p.fracFpMult);
    out.pod(p.fracFpDiv);
    out.pod(p.fracFpSqrt);
    out.pod(p.avgBlockInstrs);
    out.pod(p.takenBias);
    out.pod(p.branchPredictability);
    out.pod(p.callFraction);
    out.pod(p.avgCallDepth);
    out.pod(p.codeFootprintBytes);
    out.pod(p.hotCodeBytes);
    out.pod(p.dataFootprintBytes);
    out.pod(p.hotDataFraction);
    out.pod(p.fracPointerChase);
    out.pod(p.fracStrided);
    out.pod(p.strideBytes);
    out.pod(p.valueLocality);
    out.pod(p.avgDependencyDistance);
}

trace::WorkloadProfile
readProfile(Reader &in)
{
    trace::WorkloadProfile p;
    p.name = in.str();
    p.isFloatingPoint = in.pod<bool>();
    p.paperInstructionsMillions = in.pod<double>();
    p.fracLoad = in.pod<double>();
    p.fracStore = in.pod<double>();
    p.fracIntMult = in.pod<double>();
    p.fracIntDiv = in.pod<double>();
    p.fracFpAlu = in.pod<double>();
    p.fracFpMult = in.pod<double>();
    p.fracFpDiv = in.pod<double>();
    p.fracFpSqrt = in.pod<double>();
    p.avgBlockInstrs = in.pod<double>();
    p.takenBias = in.pod<double>();
    p.branchPredictability = in.pod<double>();
    p.callFraction = in.pod<double>();
    p.avgCallDepth = in.pod<double>();
    p.codeFootprintBytes = in.pod<std::uint64_t>();
    p.hotCodeBytes = in.pod<std::uint64_t>();
    p.dataFootprintBytes = in.pod<std::uint64_t>();
    p.hotDataFraction = in.pod<double>();
    p.fracPointerChase = in.pod<double>();
    p.fracStrided = in.pod<double>();
    p.strideBytes = in.pod<std::uint32_t>();
    p.valueLocality = in.pod<double>();
    p.avgDependencyDistance = in.pod<double>();
    return p;
}

} // namespace

void
JobRequest::serialize(Writer &out) const
{
    writeProfile(out, profile);
    static_assert(std::is_trivially_copyable_v<sim::ProcessorConfig>,
                  "ProcessorConfig is memcpy-serialized over the "
                  "sandbox pipe; a non-trivially-copyable member "
                  "needs explicit field-by-field handling here");
    out.pod(config);
    out.pod(instructions);
    out.pod(warmupInstructions);
    out.pod(hasHook);
    out.str(label);
    out.pod(jobIndex);
    out.pod(attempt);
    out.pod(static_cast<std::int64_t>(deadlineBudget.count()));
    out.pod(sampling);
}

JobRequest
JobRequest::deserialize(Reader &in)
{
    JobRequest req;
    req.profile = readProfile(in);
    req.config = in.pod<sim::ProcessorConfig>();
    req.instructions = in.pod<std::uint64_t>();
    req.warmupInstructions = in.pod<std::uint64_t>();
    req.hasHook = in.pod<bool>();
    req.label = in.str();
    req.jobIndex = in.pod<std::uint64_t>();
    req.attempt = in.pod<std::uint32_t>();
    req.deadlineBudget =
        std::chrono::milliseconds(in.pod<std::int64_t>());
    in.expectBool(offsetof(sample::SamplingOptions, enabled));
    req.sampling = in.pod<sample::SamplingOptions>();
    return req;
}

void
JobResult::serialize(Writer &out) const
{
    out.pod(status);
    out.pod(cycles);
    out.pod(wallSeconds);
    out.str(message);
    out.pod(sample.has_value());
    out.pod(sample.value_or(sample::SampleSummary{}));
}

JobResult
JobResult::deserialize(Reader &in)
{
    JobResult result;
    result.status = in.pod<ResultStatus>();
    result.cycles = in.pod<double>();
    result.wallSeconds = in.pod<double>();
    result.message = in.str();
    const bool has_sample = in.pod<bool>();
    const auto summary = in.pod<sample::SampleSummary>();
    if (has_sample)
        result.sample = summary;
    return result;
}

void
writeFrame(int fd, const std::vector<std::byte> &payload)
{
    const std::uint32_t size =
        static_cast<std::uint32_t>(payload.size());
    writeAll(fd, &size, sizeof(size));
    if (size > 0)
        writeAll(fd, payload.data(), size);
}

bool
readFrame(int fd, std::vector<std::byte> &payload)
{
    std::uint32_t size = 0;
    const std::size_t prefix = readUpTo(fd, &size, sizeof(size));
    if (prefix == 0)
        return false;
    if (prefix < sizeof(size))
        throw TruncatedFrame(
            "truncated frame length prefix: got " +
            std::to_string(prefix) + " of " +
            std::to_string(sizeof(size)) + " bytes before EOF");
    if (size > kMaxFramePayload)
        throw ProtocolError(
            "frame payload of " + std::to_string(size) +
            " bytes exceeds the " + std::to_string(kMaxFramePayload) +
            "-byte limit");
    payload.resize(size);
    if (size > 0) {
        const std::size_t got = readUpTo(fd, payload.data(), size);
        if (got < size)
            throw TruncatedFrame(
                "truncated frame payload: got " +
                std::to_string(got) + " of " + std::to_string(size) +
                " bytes before EOF");
    }
    return true;
}

} // namespace rigor::exec::proc
