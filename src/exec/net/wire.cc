#include "exec/net/wire.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include <sys/socket.h>

namespace rigor::exec::net
{

namespace
{

/**
 * Write exactly @p size bytes to a socket, riding out EINTR and
 * short writes. Unlike the pipe-oriented proc::writeFrame, this
 * sends with MSG_NOSIGNAL: a peer that vanished mid-frame surfaces
 * as an EPIPE ProtocolError the caller can catch, not as a SIGPIPE
 * that kills the sending process.
 */
void
sendAll(int fd, const void *data, std::size_t size)
{
    const char *at = static_cast<const char *>(data);
    while (size > 0) {
        const ssize_t n = ::send(fd, at, size, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw proc::ProtocolError(
                std::string("socket write: ") +
                std::strerror(errno));
        }
        at += n;
        size -= static_cast<std::size_t>(n);
    }
}

} // namespace

void
sendMessage(int fd, MsgType type, const std::vector<std::byte> &body)
{
    if (1 + body.size() > proc::kMaxFramePayload)
        throw proc::ProtocolError("frame payload too large to send");
    // Length prefix, tag and body leave in one send: two sends put
    // the body behind the peer's delayed ACK of the prefix.
    const auto length = static_cast<std::uint32_t>(1 + body.size());
    std::vector<std::byte> frame(sizeof(length) + length);
    std::memcpy(frame.data(), &length, sizeof(length));
    frame[sizeof(length)] = static_cast<std::byte>(type);
    std::copy(body.begin(), body.end(),
              frame.begin() + sizeof(length) + 1);
    sendAll(fd, frame.data(), frame.size());
}

bool
recvMessage(int fd, std::vector<std::byte> &payload)
{
    if (!proc::readFrame(fd, payload))
        return false;
    if (payload.empty())
        throw proc::ProtocolError("empty message frame (no tag byte)");
    return true;
}

MsgType
readType(proc::Reader &in)
{
    const auto raw = in.pod<std::uint8_t>();
    if (raw < static_cast<std::uint8_t>(MsgType::JobAssign) ||
        raw > static_cast<std::uint8_t>(MsgType::JobDone))
        throw proc::ProtocolError("unknown message tag " +
                                  std::to_string(raw));
    return static_cast<MsgType>(raw);
}

} // namespace rigor::exec::net
