/**
 * @file
 * Message layer of the controller <-> worker TCP protocol.
 *
 * Transport framing is exactly the sandbox pipe protocol
 * (exec/proc/protocol.hh): length-prefixed frames written and read
 * with the same EINTR-safe, bounds-checked, size-capped code — a TCP
 * socket is just another fd. This header adds what pipes never
 * needed:
 *
 *  - a one-byte message tag on every frame (pipes are strictly
 *    request/response; a socket multiplexes job traffic with
 *    heartbeats and shutdown);
 *  - a versioned handshake. The two pipe ends are always the same
 *    forked binary; two TCP ends are not, so a worker opens with
 *    Hello{magic, version, slots, name, session id, held leases}
 *    and the controller answers HelloAck{accepted, lease,
 *    heartbeat, auth challenge} or rejects the session. When the
 *    controller demands authentication, the worker follows up with
 *    AuthProof (an HMAC over the challenge, see exec/net/auth.hh).
 *    Either way the handshake concludes with SessionAck, which
 *    tells the worker whether it was admitted and whether it
 *    resumed a parked session (lease handback).
 *
 * Payload bodies reuse proc::Writer / proc::Reader and the existing
 * JobRequest / JobResult serializers; job frames carry a lease id in
 * front of the proc payload so a reclaimed (stale) result is
 * recognizable when it arrives late.
 */

#ifndef RIGOR_EXEC_NET_WIRE_HH
#define RIGOR_EXEC_NET_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/proc/protocol.hh"

namespace rigor::exec::net
{

/** Protocol magic ("RGN1") leading every Hello. */
inline constexpr std::uint32_t kWireMagic = 0x52474e31;
/** Wire protocol version; bumped on any incompatible change.
 *  Version 2 added session ids, lease handback, the authenticated
 *  handshake (AuthProof/SessionAck), and graceful drain. Version 3
 *  changed the memcpy'd ProcessorConfig layout: CacheGeometry lost
 *  its replacement-policy field. */
inline constexpr std::uint16_t kWireVersion = 3;

/** What one frame carries (first payload byte). */
enum class MsgType : std::uint8_t
{
    /** worker -> controller: session open (magic, version, slots,
     *  worker name, session id, held lease ids on resume). */
    Hello = 1,
    /** controller -> worker: session accepted/rejected + the lease
     *  and heartbeat intervals the worker must honor, plus the
     *  authentication challenge when the fleet requires a token. */
    HelloAck = 2,
    /** controller -> worker: one leased job (lease id +
     *  proc::JobRequest). */
    JobAssign = 3,
    /** worker -> controller: one finished job (lease id +
     *  proc::JobResult). */
    JobDone = 4,
    /** worker -> controller: liveness beacon. */
    Heartbeat = 5,
    /** controller -> worker: drain and disconnect. */
    Shutdown = 6,
    /** worker -> controller: HMAC answer to the HelloAck challenge
     *  (only when the controller demanded authentication). */
    AuthProof = 7,
    /** controller -> worker: handshake verdict — admitted or not,
     *  and whether a parked session was resumed. */
    SessionAck = 8,
    /** worker -> controller: the worker is draining; grant it no
     *  further leases (in-flight jobs still complete). */
    Drain = 9,
};

/** Display name for diagnostics. */
std::string toString(MsgType type);

/** Session-open request (worker -> controller). */
struct Hello
{
    std::uint32_t magic = kWireMagic;
    std::uint16_t version = kWireVersion;
    /** Concurrent jobs the worker is willing to hold. */
    std::uint16_t slots = 1;
    /** Worker identity recorded as cell provenance ("host:pid" by
     *  convention); must be non-empty. */
    std::string name;
    /**
     * Durable session identity, stable across reconnects of one
     * worker process; must be non-empty. A reconnecting worker
     * presenting the id of a parked session resumes its leases
     * instead of being treated as a fresh join.
     */
    std::string sessionId;
    /**
     * Lease ids the worker still holds (queued, executing, or with
     * a completed-but-undelivered result). On resume the controller
     * keeps exactly these leases alive and requeues any parked
     * lease the worker no longer remembers.
     */
    std::vector<std::uint64_t> heldLeases;

    void serialize(proc::Writer &out) const;
    static Hello deserialize(proc::Reader &in);
};

/** Session-open response (controller -> worker). */
struct HelloAck
{
    bool accepted = false;
    /** Rejection reason; empty when accepted. */
    std::string reason;
    /** Lease duration the controller reclaims after. */
    std::uint64_t leaseMs = 0;
    /** Heartbeat cadence the worker must keep under the lease. */
    std::uint64_t heartbeatMs = 0;
    /** The controller demands an AuthProof before admitting. */
    bool authRequired = false;
    /** Fresh per-connection nonce the proof must cover; empty when
     *  authentication is off. Freshness is the replay defense: a
     *  proof captured from an earlier connection covers a stale
     *  nonce and fails verification. */
    std::string challenge;

    void serialize(proc::Writer &out) const;
    static HelloAck deserialize(proc::Reader &in);
};

/** Authentication answer (worker -> controller). */
struct AuthProofMsg
{
    /** Hex HMAC-SHA256(token, challenge || sessionId || name). */
    std::string proof;

    void serialize(proc::Writer &out) const;
    static AuthProofMsg deserialize(proc::Reader &in);
};

/** Handshake conclusion (controller -> worker). */
struct SessionAck
{
    bool accepted = false;
    /** Rejection reason; empty when accepted. */
    std::string reason;
    /** The connection resumed a parked session: its surviving
     *  leases stay live and buffered results may be handed back. */
    bool resumed = false;
    /** Leases still live for a resumed session (0 on fresh join). */
    std::uint32_t retainedLeases = 0;

    void serialize(proc::Writer &out) const;
    static SessionAck deserialize(proc::Reader &in);
};

/**
 * Send one tagged message: a frame whose payload is the tag byte
 * followed by @p body (may be empty for Heartbeat/Shutdown). Throws
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
