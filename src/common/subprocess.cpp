#include "reap/common/subprocess.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "reap/common/fault.hpp"
#include "reap/common/strings.hpp"

namespace reap::common {
namespace {

ExitStatus decode(int wstatus) {
  ExitStatus s;
  if (WIFEXITED(wstatus)) {
    s.exited = true;
    s.code = WEXITSTATUS(wstatus);
  } else if (WIFSIGNALED(wstatus)) {
    s.signal = WTERMSIG(wstatus);
  }
  return s;
}

}  // namespace

std::string ExitStatus::describe() const {
  if (exited) return "exit " + std::to_string(code);
  if (signal != 0) return "signal " + std::to_string(signal);
  return "unknown status";
}

namespace {

// Shared body of spawn()/spawn_piped(): returns the child's pid, or
// nullopt on failure. When `stdout_fd` is non-null the child's stdout
// goes to a pipe (non-blocking read end returned through it) and only
// stderr goes to the log; otherwise both go to the log.
std::optional<long> spawn_impl(const std::vector<std::string>& argv,
                               const std::string& log_path, int* stdout_fd,
                               std::string* error, bool* transient) {
  if (transient) *transient = false;
  if (stdout_fd) *stdout_fd = -1;
  if (argv.empty()) {
    fail(error, "spawn: empty argv");
    return std::nullopt;
  }

  if (const auto f = fault::hit("worker.spawn", argv[0])) {
    if (transient) *transient = true;  // injected scarcity, not a bad argv
    fail(error, std::string("spawn: injected ") + fault::to_string(f->kind));
    return std::nullopt;
  }

  // Open the log in the parent so an unwritable path is a clean error
  // here, not a silent child death.
  int log_fd = -1;
  if (!log_path.empty()) {
    log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd < 0) {
      fail(error, "spawn: cannot open log " + log_path + ": " +
                      std::strerror(errno));
      return std::nullopt;
    }
  }

  int out_pipe[2] = {-1, -1};
  if (stdout_fd && ::pipe(out_pipe) != 0) {
    if (log_fd >= 0) ::close(log_fd);
    if (transient) *transient = true;  // fd exhaustion clears itself
    fail(error, std::string("spawn: pipe: ") + std::strerror(errno));
    return std::nullopt;
  }

  // Report an exec failure (e.g. missing binary) back through a
  // close-on-exec pipe: a successful exec closes it silently, a failed
  // one writes errno before _exit.
  int exec_pipe[2] = {-1, -1};
  if (::pipe(exec_pipe) != 0 ||
      ::fcntl(exec_pipe[1], F_SETFD, FD_CLOEXEC) != 0) {
    if (exec_pipe[0] >= 0) ::close(exec_pipe[0]);
    if (exec_pipe[1] >= 0) ::close(exec_pipe[1]);
    if (out_pipe[0] >= 0) ::close(out_pipe[0]);
    if (out_pipe[1] >= 0) ::close(out_pipe[1]);
    if (log_fd >= 0) ::close(log_fd);
    if (transient) *transient = true;  // fd exhaustion clears itself
    fail(error, std::string("spawn: pipe: ") + std::strerror(errno));
    return std::nullopt;
  }

  // execvp wants a mutable char* array; build it before fork so the child
  // only touches async-signal-safe calls.
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& arg : argv) cargv.push_back(const_cast<char*>(arg.c_str()));
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(exec_pipe[0]);
    ::close(exec_pipe[1]);
    if (out_pipe[0] >= 0) ::close(out_pipe[0]);
    if (out_pipe[1] >= 0) ::close(out_pipe[1]);
    if (log_fd >= 0) ::close(log_fd);
    if (transient) *transient = true;  // EAGAIN/ENOMEM: retry may succeed
    fail(error, std::string("spawn: fork: ") + std::strerror(errno));
    return std::nullopt;
  }

  if (pid == 0) {  // child
    ::close(exec_pipe[0]);
    if (out_pipe[1] >= 0) {
      ::close(out_pipe[0]);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[1]);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDERR_FILENO);
        ::close(log_fd);
      }
    } else if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
    }
    ::execvp(cargv[0], cargv.data());
    const int err = errno;
    [[maybe_unused]] const auto n =
        ::write(exec_pipe[1], &err, sizeof(err));
    ::_exit(127);
  }

  // parent
  ::close(exec_pipe[1]);
  if (out_pipe[1] >= 0) ::close(out_pipe[1]);
  if (log_fd >= 0) ::close(log_fd);
  int exec_errno = 0;
  const auto n = ::read(exec_pipe[0], &exec_errno, sizeof(exec_errno));
  ::close(exec_pipe[0]);
  if (n == sizeof(exec_errno)) {
    if (out_pipe[0] >= 0) ::close(out_pipe[0]);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    fail(error, "spawn: cannot exec " + argv[0] + ": " +
                    std::strerror(exec_errno));
    return std::nullopt;
  }
  if (stdout_fd) {
    ::fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);
    *stdout_fd = out_pipe[0];
  }
  return static_cast<long>(pid);
}

}  // namespace

std::optional<Child> Child::spawn(const std::vector<std::string>& argv,
                                  const std::string& log_path,
                                  std::string* error, bool* transient) {
  const auto pid = spawn_impl(argv, log_path, nullptr, error, transient);
  if (!pid) return std::nullopt;
  return Child(*pid);
}

std::optional<Child> Child::spawn_piped(const std::vector<std::string>& argv,
                                        int* stdout_fd,
                                        const std::string& log_path,
                                        std::string* error, bool* transient) {
  const auto pid = spawn_impl(argv, log_path, stdout_fd, error, transient);
  if (!pid) return std::nullopt;
  return Child(*pid);
}

Child::Child(long pid) : pid_(pid) {
#ifdef SYS_pidfd_open
  // Linux 5.3+; the descriptor is close-on-exec. ENOSYS elsewhere leaves
  // -1, and supervisors fall back to their fixed tick.
  const long fd = ::syscall(SYS_pidfd_open, static_cast<pid_t>(pid), 0);
  pidfd_ = fd >= 0 ? static_cast<int>(fd) : -1;
#endif
}

Child::Child(Child&& other) noexcept
    : pid_(other.pid_), pidfd_(other.pidfd_), status_(other.status_) {
  other.pid_ = -1;
  other.pidfd_ = -1;
  other.status_.reset();
}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    if (pid_ >= 0 && !status_) {
      kill();
      wait();
    }
    if (pidfd_ >= 0) ::close(pidfd_);
    pid_ = other.pid_;
    pidfd_ = other.pidfd_;
    status_ = other.status_;
    other.pid_ = -1;
    other.pidfd_ = -1;
    other.status_.reset();
  }
  return *this;
}

Child::~Child() {
  if (pid_ >= 0 && !status_) {
    kill();
    wait();
  }
  if (pidfd_ >= 0) ::close(pidfd_);
}

std::optional<ExitStatus> Child::poll() {
  if (status_ || pid_ < 0) return status_;
  int wstatus = 0;
  const pid_t r = ::waitpid(pid_, &wstatus, WNOHANG);
  if (r == pid_) {
    status_ = decode(wstatus);
  } else if (r < 0 && errno != EINTR) {
    // Unreapable (e.g. ECHILD because SIGCHLD is SIG_IGN and the kernel
    // auto-reaped): report a distinct non-success status rather than
    // spinning forever -- or worse, guessing "exit 0".
    status_ = ExitStatus{};
  }
  return status_;
}

ExitStatus Child::wait() {
  if (status_ || pid_ < 0) return status_.value_or(ExitStatus{});
  int wstatus = 0;
  pid_t r = -1;
  while ((r = ::waitpid(pid_, &wstatus, 0)) < 0 && errno == EINTR) {
  }
  status_ = r == pid_ ? decode(wstatus) : ExitStatus{};  // see poll()
  return *status_;
}

bool Child::kill(int sig) {
  if (pid_ < 0 || status_) return false;
  return ::kill(static_cast<pid_t>(pid_), sig) == 0;
}

}  // namespace reap::common
