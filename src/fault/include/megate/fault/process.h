#pragma once
// Child-process management for process-level chaos: the harness spawns
// real megate_shardd daemons, then kills, SIGSTOPs and restarts them
// mid-run. Deliberately minimal — fork/exec, a stdout pipe for the
// child's "LISTENING <port>" announcement, and signal plumbing.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace megate::fault {

class ChildProcess {
 public:
  ChildProcess() = default;
  /// Kills (SIGKILL) and reaps a still-running child.
  ~ChildProcess();

  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess& operator=(ChildProcess&& other) noexcept;

  /// fork+exec `binary` with `args` (argv[0] is added automatically).
  /// The child joins its own process group and its stdout is captured
  /// into a pipe readable via read_line(). False on failure.
  bool spawn(const std::string& binary,
             const std::vector<std::string>& args);

  /// Reads one '\n'-terminated line from the child's stdout (the
  /// terminator is stripped). False on timeout or closed pipe.
  bool read_line(std::string* line, int timeout_ms);

  bool signal(int sig);
  bool stop();    ///< SIGSTOP — freeze without killing (partition analog)
  bool resume();  ///< SIGCONT
  /// SIGKILL + reap. Safe on a never-started or already-reaped child.
  void terminate();
  /// Waits up to `timeout_ms` for exit; reaps and reports the raw
  /// waitpid status. False while still running.
  bool wait_exit(int timeout_ms, int* status);

  pid_t pid() const noexcept { return pid_; }
  bool running() const noexcept { return pid_ > 0; }

 private:
  void close_pipe();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string line_buf_;
};

/// One spawned megate_shardd child and the port it announced.
struct Shardd {
  ChildProcess proc;
  std::uint16_t port = 0;
};

/// Spawns `binary` as shard daemon `shard` on `port` (0 = kernel-assigned;
/// `recover` adds --recover) and reads its "LISTENING <port>" line. False
/// when the spawn fails, no line arrives within 15 s, or the line is not
/// "LISTENING " followed by exactly a port in 1..65535. Never throws.
bool spawn_shardd(const std::string& binary, std::uint16_t port,
                  bool recover, std::size_t shard, Shardd* out);

}  // namespace megate::fault
