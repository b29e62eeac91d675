/**
 * @file
 * Minimal TCP plumbing: listen/accept/connect with errno turned into
 * exceptions, plus an OwnedFd RAII guard so every error path closes
 * its socket. No campaign runs over TCP; perfbench's wire round-trip
 * probe and the pipe probe's fd guards use it.
 *
 * A connected TCP socket speaks the same length-prefixed frame
 * protocol as the sandbox pipes (exec/proc/protocol.hh), tagged by
 * exec/net/wire.hh. IPv4 only: the address parser accepts dotted
 * quads and "localhost".
 *
 * Every socket here is opened close-on-exec (SOCK_CLOEXEC on
 * socket(), accept4() for accepted connections), so a sandbox worker
 * forked from the same process inherits none of them. All blocking
 * calls are EINTR-safe; an interrupted connect() is completed via
 * poll(POLLOUT) + SO_ERROR rather than re-calling connect (which
 * would misreport the in-progress attempt as EALREADY). Frame
 * writes live in exec/proc/protocol.cc, whose writeAll already
 * loops over partial writes and EINTR.
 */

#ifndef RIGOR_EXEC_NET_SOCKET_HH
#define RIGOR_EXEC_NET_SOCKET_HH

#include <cstdint>
#include <string>

namespace rigor::exec::net
{

/** Close-on-destruction fd guard (move-only). */
class OwnedFd
{
  public:
    OwnedFd() = default;
    explicit OwnedFd(int fd)
        : _fd(fd)
    {
    }
    OwnedFd(OwnedFd &&other) noexcept
        : _fd(other.release())
    {
    }
    OwnedFd &operator=(OwnedFd &&other) noexcept
    {
        if (this != &other) {
            reset(other.release());
        }
        return *this;
    }
    OwnedFd(const OwnedFd &) = delete;
    OwnedFd &operator=(const OwnedFd &) = delete;
    ~OwnedFd() { reset(); }

    int get() const { return _fd; }
    bool valid() const { return _fd >= 0; }
    int release()
    {
        const int fd = _fd;
        _fd = -1;
        return fd;
    }
    void reset(int fd = -1);

  private:
    int _fd = -1;
};

/**
 * Bind and listen on @p address:@p port (port 0 = kernel-assigned
 * ephemeral port; read it back with boundPort). SO_REUSEADDR is set
 * so an immediately restarted listener can rebind. Throws
 * std::runtime_error with the errno text on failure.
 */
OwnedFd listenTcp(const std::string &address, std::uint16_t port,
                  int backlog = 16);

/** The local port a listening/bound socket actually got. */
std::uint16_t boundPort(int fd);

/** Accept one connection (blocking, EINTR-safe). Returns an invalid
 *  fd when the listener has been shut down. */
OwnedFd acceptClient(int listenFd);

/** Connect to @p address:@p port (blocking). Throws
 *  std::runtime_error with the errno text on failure. */
OwnedFd connectTcp(const std::string &address, std::uint16_t port);

/** Half-close both directions so a blocked peer read wakes with EOF
 *  (used to interrupt reader threads; safe on any socket fd). */
void shutdownSocket(int fd);

} // namespace rigor::exec::net

#endif // RIGOR_EXEC_NET_SOCKET_HH
