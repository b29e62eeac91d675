#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bool_byte.hh"
#include "exec/net/socket.hh"
#include "exec/net/wire.hh"
#include "exec/proc/protocol.hh"

namespace net = rigor::exec::net;
namespace proc = rigor::exec::proc;

namespace
{

/** A connected fd pair (both ends stream sockets, like TCP). */
struct FdPair
{
    int fds[2] = {-1, -1};

    FdPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }
    ~FdPair()
    {
        closeWrite();
        closeRead();
    }
    int writeEnd() const { return fds[0]; }
    int readEnd() const { return fds[1]; }
    void closeWrite()
    {
        if (fds[0] != -1)
            ::close(fds[0]);
        fds[0] = -1;
    }
    void closeRead()
    {
        if (fds[1] != -1)
            ::close(fds[1]);
        fds[1] = -1;
    }
};

void
writeRaw(int fd, const void *data, std::size_t size)
{
    ASSERT_EQ(::write(fd, data, size),
              static_cast<ssize_t>(size));
}

std::vector<std::byte>
bytesOf(const std::string &text)
{
    std::vector<std::byte> out(text.size());
    std::memcpy(out.data(), text.data(), text.size());
    return out;
}

} // namespace

// ----- Satellite fix: truncated frames carry byte counts -----

TEST(NetProtocol, TruncatedPayloadReportsGotAndExpectedBytes)
{
    FdPair pair;
    const std::uint32_t size = 100;
    writeRaw(pair.writeEnd(), &size, sizeof(size));
    const char partial[10] = {};
    writeRaw(pair.writeEnd(), partial, sizeof(partial));
    pair.closeWrite();

    std::vector<std::byte> payload;
    try {
        proc::readFrame(pair.readEnd(), payload);
        FAIL() << "a torn frame must throw";
    } catch (const proc::TruncatedFrame &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("got 10 of 100"), std::string::npos)
            << what;
    }
}

TEST(NetProtocol, TruncatedLengthPrefixReportsByteCount)
{
    FdPair pair;
    const char partial[2] = {};
    writeRaw(pair.writeEnd(), partial, sizeof(partial));
    pair.closeWrite();

    std::vector<std::byte> payload;
    try {
        proc::readFrame(pair.readEnd(), payload);
        FAIL() << "a torn length prefix must throw";
    } catch (const proc::TruncatedFrame &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("length prefix"), std::string::npos);
        EXPECT_NE(what.find("got 2"), std::string::npos) << what;
    }
}

TEST(NetProtocol, TruncatedFrameIsAProtocolError)
{
    // Callers that catch the old type keep working.
    FdPair pair;
    const std::uint32_t size = 8;
    writeRaw(pair.writeEnd(), &size, sizeof(size));
    pair.closeWrite();

    std::vector<std::byte> payload;
    EXPECT_THROW(proc::readFrame(pair.readEnd(), payload),
                 proc::ProtocolError);
}

TEST(NetProtocol, CleanEofAtFrameBoundaryReturnsFalse)
{
    FdPair pair;
    proc::writeFrame(pair.writeEnd(), bytesOf("abc"));
    pair.closeWrite();

    std::vector<std::byte> payload;
    EXPECT_TRUE(proc::readFrame(pair.readEnd(), payload));
    EXPECT_EQ(payload, bytesOf("abc"));
    EXPECT_FALSE(proc::readFrame(pair.readEnd(), payload));
}

TEST(NetProtocol, OversizedFramePayloadIsRejectedBeforeAllocation)
{
    FdPair pair;
    const std::uint32_t size = proc::kMaxFramePayload + 1;
    writeRaw(pair.writeEnd(), &size, sizeof(size));
    pair.closeWrite();

    std::vector<std::byte> payload;
    try {
        proc::readFrame(pair.readEnd(), payload);
        FAIL() << "an oversized frame must throw";
    } catch (const proc::ProtocolError &e) {
        EXPECT_NE(std::string(e.what()).find("limit"),
                  std::string::npos);
    }
}

TEST(NetProtocol, ReaderNeedReportsOffsetsOnShortPayload)
{
    proc::Writer out;
    out.pod<std::uint32_t>(7);
    proc::Reader in(out.bytes());
    EXPECT_EQ(in.pod<std::uint32_t>(), 7u);
    try {
        in.pod<std::uint64_t>();
        FAIL() << "reading past the payload must throw";
    } catch (const proc::TruncatedFrame &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("need 8 bytes at offset 4"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("only 0 remain of 4"),
                  std::string::npos)
            << what;
    }
}

// ----- The tagged message layer -----

TEST(NetProtocol, HandshakeStructsRoundTrip)
{
    net::Hello hello;
    hello.slots = 4;
    hello.name = "rack2:4242";
    hello.sessionId = "rack2:4242/b1946ac9";
    hello.heldLeases = {3, 17, 42};
    proc::Writer out;
    hello.serialize(out);
    proc::Reader in(out.bytes());
    const net::Hello back = net::Hello::deserialize(in);
    EXPECT_EQ(back.magic, net::kWireMagic);
    EXPECT_EQ(back.version, net::kWireVersion);
    EXPECT_EQ(back.slots, 4u);
    EXPECT_EQ(back.name, "rack2:4242");
    EXPECT_EQ(back.sessionId, "rack2:4242/b1946ac9");
    EXPECT_EQ(back.heldLeases,
              (std::vector<std::uint64_t>{3, 17, 42}));
    EXPECT_TRUE(in.done());

    net::HelloAck ack;
    ack.accepted = true;
    ack.leaseMs = 10000;
    ack.heartbeatMs = 1000;
    ack.authRequired = true;
    ack.challenge = "f00dfaceb00c";
    proc::Writer ack_out;
    ack.serialize(ack_out);
    proc::Reader ack_in(ack_out.bytes());
    const net::HelloAck ack_back =
        net::HelloAck::deserialize(ack_in);
    EXPECT_TRUE(ack_back.accepted);
    EXPECT_TRUE(ack_back.reason.empty());
    EXPECT_EQ(ack_back.leaseMs, 10000u);
    EXPECT_EQ(ack_back.heartbeatMs, 1000u);
    EXPECT_TRUE(ack_back.authRequired);
    EXPECT_EQ(ack_back.challenge, "f00dfaceb00c");
    EXPECT_TRUE(ack_in.done());
}

TEST(NetProtocol, AuthAndSessionStructsRoundTrip)
{
    net::AuthProofMsg proof;
    proof.proof = std::string(64, 'a');
    proc::Writer out;
    proof.serialize(out);
    proc::Reader in(out.bytes());
    EXPECT_EQ(net::AuthProofMsg::deserialize(in).proof,
              std::string(64, 'a'));
    EXPECT_TRUE(in.done());

    net::SessionAck verdict;
    verdict.accepted = false;
    verdict.reason = "bad auth proof";
    verdict.resumed = true;
    verdict.retainedLeases = 9;
    proc::Writer verdict_out;
    verdict.serialize(verdict_out);
    proc::Reader verdict_in(verdict_out.bytes());
    const net::SessionAck back =
        net::SessionAck::deserialize(verdict_in);
    EXPECT_FALSE(back.accepted);
    EXPECT_EQ(back.reason, "bad auth proof");
    EXPECT_TRUE(back.resumed);
    EXPECT_EQ(back.retainedLeases, 9u);
    EXPECT_TRUE(verdict_in.done());
}

// ----- Strict bool decoding: untrusted peers send any byte -----

TEST(NetProtocol, HelloAckRejectsNonCanonicalBools)
{
    net::HelloAck ack;
    ack.leaseMs = 10000;
    ack.heartbeatMs = 1000;
    for (const auto set_true : {
             +[](net::HelloAck &a) { a.accepted = true; },
             +[](net::HelloAck &a) { a.authRequired = true; },
         }) {
        const std::vector<std::byte> bytes =
            rigor::test::withBoolByteTwo(ack, set_true);
        proc::Reader in(bytes);
        EXPECT_THROW(net::HelloAck::deserialize(in),
                     proc::ProtocolError);
    }
}

TEST(NetProtocol, SessionAckRejectsNonCanonicalBools)
{
    net::SessionAck verdict;
    verdict.retainedLeases = 2;
    for (const auto set_true : {
             +[](net::SessionAck &v) { v.accepted = true; },
             +[](net::SessionAck &v) { v.resumed = true; },
         }) {
        const std::vector<std::byte> bytes =
            rigor::test::withBoolByteTwo(verdict, set_true);
        proc::Reader in(bytes);
        EXPECT_THROW(net::SessionAck::deserialize(in),
                     proc::ProtocolError);
    }
}

TEST(NetProtocol, JobDoneRejectsNonCanonicalBool)
{
    // The controller's view of a JobDone whose hasSample byte is 2.
    proc::JobResult result;
    result.status = proc::ResultStatus::Ok;
    result.cycles = 1234.5;
    const std::vector<std::byte> body = rigor::test::withBoolByteTwo(
        result, [](proc::JobResult &r) { r.hasSample = true; });
    const std::uint64_t lease_id = 7; // rides in front
    std::vector<std::byte> message(sizeof(lease_id) + body.size());
    std::memcpy(message.data(), &lease_id, sizeof(lease_id));
    std::memcpy(message.data() + sizeof(lease_id), body.data(),
                body.size());

    FdPair pair;
    net::sendMessage(pair.writeEnd(), net::MsgType::JobDone, message);
    std::vector<std::byte> payload;
    ASSERT_TRUE(net::recvMessage(pair.readEnd(), payload));
    proc::Reader in(payload);
    ASSERT_EQ(net::readType(in), net::MsgType::JobDone);
    EXPECT_EQ(in.pod<std::uint64_t>(), 7u);
    EXPECT_THROW(proc::JobResult::deserialize(in), proc::ProtocolError);
}

TEST(NetProtocol, SendMessageSurvivesAClosedPeerWithoutSigpipe)
{
    // The controller must outlive any worker that hangs up mid-frame:
    // sends go out MSG_NOSIGNAL, so a dead peer is an exception, not
    // a process-killing SIGPIPE.
    FdPair pair;
    pair.closeRead();
    // The first send may be swallowed by the socket buffer; keep
    // pushing until the broken pipe surfaces as ProtocolError.
    EXPECT_THROW(
        {
            for (int i = 0; i < 64; ++i)
                net::sendMessage(pair.writeEnd(),
                                 net::MsgType::Heartbeat);
        },
        proc::ProtocolError);
}

TEST(NetProtocol, TaggedMessagesRoundTripOverSocket)
{
    FdPair pair;
    net::Hello hello;
    hello.name = "w1";
    proc::Writer body;
    hello.serialize(body);
    net::sendMessage(pair.writeEnd(), net::MsgType::Hello,
                     body.bytes());
    net::sendMessage(pair.writeEnd(), net::MsgType::Heartbeat);

    std::vector<std::byte> payload;
    ASSERT_TRUE(net::recvMessage(pair.readEnd(), payload));
    proc::Reader in(payload);
    EXPECT_EQ(net::readType(in), net::MsgType::Hello);
    EXPECT_EQ(net::Hello::deserialize(in).name, "w1");

    ASSERT_TRUE(net::recvMessage(pair.readEnd(), payload));
    proc::Reader beat(payload);
    EXPECT_EQ(net::readType(beat), net::MsgType::Heartbeat);
    EXPECT_TRUE(beat.done());
}

TEST(NetProtocol, UnknownMessageTagIsRejected)
{
    proc::Writer out;
    out.pod<std::uint8_t>(99);
    proc::Reader in(out.bytes());
    EXPECT_THROW(net::readType(in), proc::ProtocolError);
}

// ----- TCP plumbing -----

TEST(NetProtocol, FramesTravelOverRealTcpSockets)
{
    net::OwnedFd listener = net::listenTcp("127.0.0.1", 0);
    const std::uint16_t port = net::boundPort(listener.get());
    ASSERT_NE(port, 0u);

    std::thread server([&] {
        net::OwnedFd client = net::acceptClient(listener.get());
        ASSERT_TRUE(client.valid());
        std::vector<std::byte> payload;
        ASSERT_TRUE(proc::readFrame(client.get(), payload));
        proc::writeFrame(client.get(), payload); // echo
    });

    net::OwnedFd conn = net::connectTcp("127.0.0.1", port);
    ASSERT_TRUE(conn.valid());
    proc::writeFrame(conn.get(), bytesOf("over tcp"));
    std::vector<std::byte> echoed;
    ASSERT_TRUE(proc::readFrame(conn.get(), echoed));
    EXPECT_EQ(echoed, bytesOf("over tcp"));
    server.join();
}

TEST(NetProtocol, JobRequestSurvivesTheSocketVerbatim)
{
    proc::JobRequest request;
    request.profile = rigor::trace::WorkloadProfile{};
    request.profile.name = "gzip";
    request.instructions = 20000;
    request.warmupInstructions = 500;
    request.label = "gzip, design row 17";
    request.jobIndex = 17;
    request.attempt = 2;
    request.deadlineBudget = std::chrono::milliseconds(250);

    FdPair pair;
    proc::Writer out;
    out.pod<std::uint64_t>(7); // lease id rides in front
    request.serialize(out);
    net::sendMessage(pair.writeEnd(), net::MsgType::JobAssign,
                     out.bytes());

    std::vector<std::byte> payload;
    ASSERT_TRUE(net::recvMessage(pair.readEnd(), payload));
    proc::Reader in(payload);
    ASSERT_EQ(net::readType(in), net::MsgType::JobAssign);
    EXPECT_EQ(in.pod<std::uint64_t>(), 7u);
    const proc::JobRequest back = proc::JobRequest::deserialize(in);
    EXPECT_EQ(back.profile.name, "gzip");
    EXPECT_EQ(back.instructions, 20000u);
    EXPECT_EQ(back.warmupInstructions, 500u);
    EXPECT_EQ(back.label, "gzip, design row 17");
    EXPECT_EQ(back.jobIndex, 17u);
    EXPECT_EQ(back.attempt, 2u);
    EXPECT_EQ(back.deadlineBudget.count(), 250);
    EXPECT_TRUE(in.done());
}
