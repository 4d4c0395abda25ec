#include "megate/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

namespace megate::net {

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool set_nodelay(int fd) {
  int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

Fd tcp_listen(std::uint16_t port, std::uint16_t* bound_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return {};
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return {};
  }
  if (::listen(fd.get(), 64) != 0) return {};
  if (!set_nonblocking(fd.get())) return {};
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      return {};
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Fd tcp_accept(int listen_fd) {
  int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return {};
  Fd conn(fd);
  if (!set_nonblocking(fd)) return {};
  set_nodelay(fd);
  return conn;
}

Fd tcp_connect(std::uint16_t port, int timeout_ms) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return {};
  // Connect non-blocking so the deadline is enforceable, then switch the
  // established socket back to blocking for poll()-guarded I/O.
  if (!set_nonblocking(fd.get())) return {};
  sockaddr_in addr = loopback(port);
  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) return {};
    pollfd p{fd.get(), POLLOUT, 0};
    rc = ::poll(&p, 1, timeout_ms);
    if (rc <= 0) return {};
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      return {};
    }
  }
  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 ||
      ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) != 0) {
    return {};
  }
  set_nodelay(fd.get());
  return fd;
}

bool send_all(int fd, const char* data, std::size_t size, int timeout_ms) {
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that died mid-write surfaces as EPIPE, not a
    // process-killing SIGPIPE.
    long n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                  errno == EINTR)) {
      pollfd p{fd, POLLOUT, 0};
      int rc = ::poll(&p, 1, timeout_ms);
      if (rc <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

long recv_some(int fd, char* buf, std::size_t size, int timeout_ms,
               bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  int flags = 0;
  if (timeout_ms == 0) {
    flags = MSG_DONTWAIT;
  } else {
    pollfd p{fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc == 0) {
      if (timed_out != nullptr) *timed_out = true;
      return 0;
    }
    if (rc < 0) return -1;
  }
  const long n = ::recv(fd, buf, size, flags);
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    if (timed_out != nullptr) *timed_out = true;
    return 0;  // caller retries against its own deadline
  }
  return n;
}

bool spin_waits_pay() {
  static const bool pays = std::thread::hardware_concurrency() > 1;
  return pays;
}

}  // namespace megate::net
