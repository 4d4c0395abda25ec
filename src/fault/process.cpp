#include "megate/fault/process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <string_view>
#include <utility>

namespace megate::fault {

ChildProcess::~ChildProcess() { terminate(); }

ChildProcess::ChildProcess(ChildProcess&& other) noexcept
    : pid_(other.pid_),
      stdout_fd_(other.stdout_fd_),
      line_buf_(std::move(other.line_buf_)) {
  other.pid_ = -1;
  other.stdout_fd_ = -1;
}

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    terminate();
    pid_ = other.pid_;
    stdout_fd_ = other.stdout_fd_;
    line_buf_ = std::move(other.line_buf_);
    other.pid_ = -1;
    other.stdout_fd_ = -1;
  }
  return *this;
}

void ChildProcess::close_pipe() {
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  line_buf_.clear();
}

bool ChildProcess::spawn(const std::string& binary,
                         const std::vector<std::string>& args) {
  if (running()) return false;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return false;

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child. Own process group so a SIGSTOP/SIGKILL aimed at the daemon
    // can never hit the test runner's group.
    ::setpgid(0, 0);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    _exit(127);  // exec failed
  }
  // Parent.
  ::close(pipe_fds[1]);
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];
  ::fcntl(stdout_fd_, F_SETFL,
          ::fcntl(stdout_fd_, F_GETFL, 0) | O_NONBLOCK);
  return true;
}

bool ChildProcess::read_line(std::string* line, int timeout_ms) {
  if (stdout_fd_ < 0) return false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    const std::size_t nl = line_buf_.find('\n');
    if (nl != std::string::npos) {
      line->assign(line_buf_, 0, nl);
      line_buf_.erase(0, nl + 1);
      return true;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const int remaining_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    pollfd p{stdout_fd_, POLLIN, 0};
    int rc = ::poll(&p, 1, std::max(remaining_ms, 1));
    if (rc < 0 && errno != EINTR) return false;
    if (rc <= 0) continue;
    char buf[1024];
    long n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n > 0) {
      line_buf_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;  // pipe closed, no full line buffered
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return false;
    }
  }
}

bool ChildProcess::signal(int sig) {
  if (!running()) return false;
  return ::kill(pid_, sig) == 0;
}

bool ChildProcess::stop() { return signal(SIGSTOP); }

bool ChildProcess::resume() { return signal(SIGCONT); }

void ChildProcess::terminate() {
  if (running()) {
    // SIGKILL terminates even a SIGSTOPped process; no SIGCONT needed.
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  close_pipe();
}

bool ChildProcess::wait_exit(int timeout_ms, int* status) {
  if (!running()) return false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    int st = 0;
    pid_t rc = ::waitpid(pid_, &st, WNOHANG);
    if (rc == pid_) {
      if (status != nullptr) *status = st;
      pid_ = -1;
      close_pipe();
      return true;
    }
    if (rc < 0) return false;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    ::usleep(2000);
  }
}

bool spawn_shardd(const std::string& binary, std::uint16_t port,
                  bool recover, std::size_t shard, Shardd* out) {
  // A sanitized daemon can take seconds to start listening.
  constexpr int kAnnounceTimeoutMs = 15000;
  std::vector<std::string> args = {"--port", std::to_string(port), "--name",
                                   "shardd" + std::to_string(shard)};
  if (recover) args.push_back("--recover");
  if (!out->proc.spawn(binary, args)) return false;
  std::string line;
  if (!out->proc.read_line(&line, kAnnounceTimeoutMs)) return false;
  constexpr std::string_view kTag = "LISTENING ";
  if (!line.starts_with(kTag)) return false;
  const char* last = line.data() + line.size();
  std::uint16_t parsed = 0;
  const auto [end, ec] =
      std::from_chars(line.data() + kTag.size(), last, parsed);
  if (ec != std::errc() || end != last || parsed == 0) return false;
  out->port = parsed;
  return true;
}

}  // namespace megate::fault
