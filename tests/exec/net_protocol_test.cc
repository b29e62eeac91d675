#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
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

// Strict bool decoding: untrusted peers send any byte.
TEST(NetProtocol, JobDoneRejectsNonCanonicalBool)
{
    // The controller's view of a JobDone whose sample presence byte is 2.
    proc::JobResult result;
    result.status = proc::ResultStatus::Ok;
    result.cycles = 1234.5;
    const std::vector<std::byte> body = rigor::test::withBoolByteTwo(
        result, [](proc::JobResult &r) { r.sample.emplace(); });
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
    // A sender must outlive a peer that hangs up mid-frame: sends go
    // out MSG_NOSIGNAL, so a dead peer is an exception, not a
    // process-killing SIGPIPE.
    FdPair pair;
    pair.closeRead();
    // The first send may be swallowed by the socket buffer; keep
    // pushing until the broken pipe surfaces as ProtocolError.
    EXPECT_THROW(
        {
            for (int i = 0; i < 64; ++i)
                net::sendMessage(pair.writeEnd(),
                                 net::MsgType::JobDone);
        },
        proc::ProtocolError);
}

TEST(NetProtocol, TaggedMessagesRoundTripOverSocket)
{
    FdPair pair;
    proc::Writer body;
    body.pod<std::uint64_t>(42);
    net::sendMessage(pair.writeEnd(), net::MsgType::JobAssign,
                     body.bytes());
    net::sendMessage(pair.writeEnd(), net::MsgType::JobDone);

    std::vector<std::byte> payload;
    ASSERT_TRUE(net::recvMessage(pair.readEnd(), payload));
    proc::Reader in(payload);
    EXPECT_EQ(net::readType(in), net::MsgType::JobAssign);
    EXPECT_EQ(in.pod<std::uint64_t>(), 42u);

    ASSERT_TRUE(net::recvMessage(pair.readEnd(), payload));
    proc::Reader done(payload);
    EXPECT_EQ(net::readType(done), net::MsgType::JobDone);
    EXPECT_TRUE(done.done());
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

// ----- Socket hygiene: close-on-exec, no Nagle -----

TEST(NetSocket, EverySocketIsOpenedCloseOnExec)
{
    net::OwnedFd listener = net::listenTcp("127.0.0.1", 0);
    const std::uint16_t port = net::boundPort(listener.get());

    net::OwnedFd client;
    std::thread connector([&client, port] {
        client = net::connectTcp("127.0.0.1", port);
    });
    net::OwnedFd accepted = net::acceptClient(listener.get());
    connector.join();

    ASSERT_TRUE(listener.valid());
    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(accepted.valid());
    for (const int fd : {listener.get(), client.get(),
                         accepted.get()}) {
        const int flags = ::fcntl(fd, F_GETFD);
        ASSERT_GE(flags, 0);
        EXPECT_NE(flags & FD_CLOEXEC, 0)
            << "fd " << fd << " would leak into forked sandboxes";
    }
}

TEST(NetSocket, BothEndsDisableNagle)
{
    // Nagle on either end holds a small frame back until the peer's
    // delayed ACK, adding tens of milliseconds to every round trip.
    net::OwnedFd listener = net::listenTcp("127.0.0.1", 0);
    const std::uint16_t port = net::boundPort(listener.get());

    net::OwnedFd client;
    std::thread connector([&client, port] {
        client = net::connectTcp("127.0.0.1", port);
    });
    net::OwnedFd accepted = net::acceptClient(listener.get());
    connector.join();

    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(accepted.valid());
    for (const int fd : {client.get(), accepted.get()}) {
        int on = 0;
        socklen_t size = sizeof(on);
        ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on,
                               &size),
                  0);
        EXPECT_NE(on, 0) << "fd " << fd << " still runs Nagle";
    }
}
