#pragma once
// One megate_shardd child process on a kernel-assigned loopback port.
//
// The child is told to die with its parent (PR_SET_PDEATHSIG), so it
// cannot outlive the benchmark even when the benchmark itself is killed;
// on a normal exit the destructor stops it and waits for it.

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace loopbench {

class ShardDaemon {
 public:
  ShardDaemon() = default;
  ~ShardDaemon() { stop(); }
  ShardDaemon(const ShardDaemon&) = delete;
  ShardDaemon& operator=(const ShardDaemon&) = delete;

  /// Starts `binary --port 0 --name <name> [--metrics-json <path>]` and
  /// waits for its "LISTENING <port>" line. False (with `error` set) if
  /// the child could not be started or did not announce a port in time.
  bool start(const std::string& binary, const std::string& name,
             const std::string& metrics_path, std::string* error);

  /// SIGTERM, then wait up to `timeout_ms` for a clean exit (which writes
  /// the metrics file); SIGKILL after that. Safe to call repeatedly.
  void stop(int timeout_ms = 2000);

  std::uint16_t port() const noexcept { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace loopbench
