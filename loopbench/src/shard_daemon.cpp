#include "shard_daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

namespace loopbench {

bool ShardDaemon::start(const std::string& binary, const std::string& name,
                        const std::string& metrics_path, std::string* error) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> args = {binary, "--port", "0", "--name", name};
  if (!metrics_path.empty()) {
    args.push_back("--metrics-json");
    args.push_back(metrics_path);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);  // parent already gone
    dup2(fds[1], STDOUT_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  stdout_fd_ = fds[0];

  // Wait for "LISTENING <port>\n".
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd p{stdout_fd_, POLLIN, 0};
    if (left <= 0 || poll(&p, 1, static_cast<int>(left)) <= 0) {
      *error = "no LISTENING line from " + binary;
      stop(0);
      return false;
    }
    char buf[128];
    const ssize_t n = read(stdout_fd_, buf, sizeof buf);
    if (n <= 0) {
      *error = binary + " exited before listening";
      stop(0);
      return false;
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  const std::string prefix = "LISTENING ";
  if (line.rfind(prefix, 0) != 0) {
    *error = "unexpected first line from " + binary + ": " + line;
    stop(0);
    return false;
  }
  port_ = static_cast<std::uint16_t>(
      std::strtoul(line.c_str() + prefix.size(), nullptr, 10));
  return port_ != 0;
}

void ShardDaemon::stop(int timeout_ms) {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    bool exited = false;
    for (int waited = 0; waited <= timeout_ms; waited += 10) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        exited = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

}  // namespace loopbench
