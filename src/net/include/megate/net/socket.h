#pragma once
// Thin POSIX TCP helpers for the control-plane daemons. Loopback-only by
// design: shardd/agentd bind 127.0.0.1 — the chaos harness runs every
// process on one machine, and the protocol carries no authentication.

#include <cstddef>
#include <cstdint>

namespace megate::net {

/// RAII file descriptor: closes on destruction, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  /// Closes the current fd (if any) and adopts `fd`.
  void reset(int fd = -1);
  /// Gives up ownership without closing.
  int release() noexcept {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// Listening socket on 127.0.0.1:`port` (0 = kernel-assigned; the bound
/// port is written to *bound_port). Non-blocking, SO_REUSEADDR.
/// Returns an invalid Fd on failure.
Fd tcp_listen(std::uint16_t port, std::uint16_t* bound_port);

/// Accepts one pending connection (non-blocking listen socket); the
/// returned connection fd is non-blocking with TCP_NODELAY. Invalid Fd
/// when nothing is pending.
Fd tcp_accept(int listen_fd);

/// Blocking connect to 127.0.0.1:`port` with a deadline. The returned fd
/// is *blocking* with TCP_NODELAY — client channels use poll()-guarded
/// blocking I/O. Invalid Fd on failure/timeout.
Fd tcp_connect(std::uint16_t port, int timeout_ms);

bool set_nonblocking(int fd);
bool set_nodelay(int fd);

/// Writes all of `data`, polling for writability up to `timeout_ms` per
/// stall. False on error/timeout (the stream is then unusable: an
/// unknown prefix was delivered).
bool send_all(int fd, const char* data, std::size_t size, int timeout_ms);

/// Reads at least one and at most `size` bytes into `buf`, waiting up to
/// `timeout_ms` for the first; 0 makes it one non-blocking recv (the
/// spin-wait's probe). Returns bytes read; 0 = orderly close or timeout;
/// -1 = error. `*timed_out` distinguishes timeout from close.
long recv_some(int fd, char* buf, std::size_t size, int timeout_ms,
               bool* timed_out);

/// True when a spin-wait can pay: with one CPU the peer being waited for
/// cannot run while the waiter spins, so both ends of the wire go
/// straight to blocking.
bool spin_waits_pay();

}  // namespace megate::net
