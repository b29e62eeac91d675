/**
 * @file
 * Tagged frames over a stream socket.
 *
 * Transport framing is exactly the sandbox pipe protocol
 * (exec/proc/protocol.hh): length-prefixed frames written and read
 * with the same EINTR-safe, bounds-checked, size-capped code — a TCP
 * socket is just another fd. This header adds a one-byte message tag
 * in front of every frame's payload, and sends with MSG_NOSIGNAL so
 * a vanished peer is an exception rather than a SIGPIPE.
 *
 * Payload bodies reuse proc::Writer / proc::Reader and the existing
 * JobRequest / JobResult serializers. No campaign runs over TCP; the
 * layer is kept for perfbench's wire round-trip probe.
 */

#ifndef RIGOR_EXEC_NET_WIRE_HH
#define RIGOR_EXEC_NET_WIRE_HH

#include <cstdint>
#include <vector>

#include "exec/proc/protocol.hh"

namespace rigor::exec::net
{

/** What one frame carries (first payload byte). */
enum class MsgType : std::uint8_t
{
    /** One job (a lease id + proc::JobRequest). */
    JobAssign = 3,
    /** One finished job (the lease id + proc::JobResult). */
    JobDone = 4,
};

/**
 * Send one tagged message: a frame whose payload is the tag byte
 * followed by @p body (which may be empty). Throws
 * proc::ProtocolError on I/O failure.
 */
void sendMessage(int fd, MsgType type,
                 const std::vector<std::byte> &body = {});

/**
 * Receive one frame into @p payload. Returns false on clean EOF.
 * Use readType on a Reader over the payload to consume the tag.
 * Throws proc::ProtocolError / proc::TruncatedFrame like readFrame.
 */
bool recvMessage(int fd, std::vector<std::byte> &payload);

/** Consume and validate the leading tag byte of a message payload. */
MsgType readType(proc::Reader &in);

} // namespace rigor::exec::net

#endif // RIGOR_EXEC_NET_WIRE_HH
