#include "exec/net/socket.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace rigor::exec::net
{

namespace
{

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

in_addr
parseAddress(const std::string &address)
{
    in_addr parsed{};
    const std::string resolved =
        address == "localhost" ? "127.0.0.1" : address;
    if (::inet_pton(AF_INET, resolved.c_str(), &parsed) != 1)
        throw std::runtime_error(
            "cannot parse IPv4 address '" + address +
            "' (dotted quad or 'localhost' expected)");
    return parsed;
}

sockaddr_in
makeEndpoint(const std::string &address, std::uint16_t port)
{
    sockaddr_in endpoint{};
    endpoint.sin_family = AF_INET;
    endpoint.sin_port = htons(port);
    endpoint.sin_addr = parseAddress(address);
    return endpoint;
}

/** Frames are small (a JobRequest is a few hundred bytes) and
 *  latency-sensitive: never batch them behind Nagle, on either end
 *  of the connection. */
void
setNoDelay(int fd)
{
    const int on = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
}

} // namespace

void
OwnedFd::reset(int fd)
{
    if (_fd >= 0)
        ::close(_fd);
    _fd = fd;
}

OwnedFd
listenTcp(const std::string &address, std::uint16_t port, int backlog)
{
    // SOCK_CLOEXEC everywhere: the process-isolation backend forks
    // sandbox children from the same process that may hold the
    // controller's listening socket, and an inherited listener would
    // keep the port alive (and accept connections into a dead
    // process) after the controller exits.
    OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid())
        fail("socket");
    const int on = 1;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &on,
                     sizeof(on)) != 0)
        fail("setsockopt(SO_REUSEADDR)");
    const sockaddr_in endpoint = makeEndpoint(address, port);
    if (::bind(fd.get(),
               reinterpret_cast<const sockaddr *>(&endpoint),
               sizeof(endpoint)) != 0)
        fail("bind " + address + ":" + std::to_string(port));
    if (::listen(fd.get(), backlog) != 0)
        fail("listen");
    return fd;
}

std::uint16_t
boundPort(int fd)
{
    sockaddr_in endpoint{};
    socklen_t size = sizeof(endpoint);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&endpoint),
                      &size) != 0)
        fail("getsockname");
    return ntohs(endpoint.sin_port);
}

OwnedFd
acceptClient(int listenFd)
{
    for (;;) {
        const int fd =
            ::accept4(listenFd, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd >= 0) {
            setNoDelay(fd);
            return OwnedFd(fd);
        }
        if (errno == EINTR)
            continue;
        // The listener was closed or shut down under us: the
        // controller is winding down, not an error worth throwing.
        return OwnedFd();
    }
}

OwnedFd
connectTcp(const std::string &address, std::uint16_t port)
{
    OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid())
        fail("socket");
    setNoDelay(fd.get());
    const sockaddr_in endpoint = makeEndpoint(address, port);
    if (::connect(fd.get(),
                  reinterpret_cast<const sockaddr *>(&endpoint),
                  sizeof(endpoint)) == 0)
        return fd;
    if (errno != EINTR)
        fail("connect " + address + ":" + std::to_string(port));
    // A signal interrupted connect(). The attempt keeps going in the
    // kernel, and calling connect() again would report EALREADY (or
    // EISCONN once it lands) — not a retry. The POSIX-blessed path
    // is to wait for writability and read the final verdict from
    // SO_ERROR.
    for (;;) {
        pollfd waiter{};
        waiter.fd = fd.get();
        waiter.events = POLLOUT;
        const int ready = ::poll(&waiter, 1, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            fail("poll during connect " + address + ":" +
                 std::to_string(port));
        }
        break;
    }
    int err = 0;
    socklen_t err_size = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err,
                     &err_size) != 0)
        fail("getsockopt(SO_ERROR) after connect");
    if (err != 0) {
        errno = err;
        fail("connect " + address + ":" + std::to_string(port));
    }
    return fd;
}

void
shutdownSocket(int fd)
{
    if (fd >= 0)
        (void)::shutdown(fd, SHUT_RDWR);
}

} // namespace rigor::exec::net
