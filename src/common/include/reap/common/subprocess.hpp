// Minimal POSIX child-process helper for tools that supervise workers
// (reap_dispatch). Spawns an argv directly -- no shell, no quoting -- with
// stdout/stderr optionally appended to a log file, and exposes the three
// operations a supervisor needs: non-blocking poll, blocking wait, and
// kill. A Child still running when destroyed is killed and reaped so a
// supervisor that errors out cannot leak workers or zombies.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace reap::common {

// How a child ended. Exactly one of (exited, signal != 0) holds for a
// process that ran; spawn failures surface as spawn() returning nullopt.
struct ExitStatus {
  bool exited = false;  // terminated via exit(); `code` is its exit code
  int code = -1;        // exit code when `exited`, else -1
  int signal = 0;       // terminating signal when killed, else 0

  bool success() const { return exited && code == 0; }

  // "exit 3" / "signal 9" -- for log and error messages.
  std::string describe() const;
};

class Child {
 public:
  // Starts argv[0] with the given arguments (PATH-resolved when argv[0]
  // has no slash). When `log_path` is non-empty, the child's stdout and
  // stderr are appended to that file (created if needed); otherwise both
  // are inherited. Returns nullopt and sets `error` when the process
  // cannot be started (fork failure, unwritable log, missing binary).
  // When `transient` is non-null it reports whether the failure is worth
  // retrying: resource exhaustion (fork/pipe EAGAIN, injected
  // worker.spawn faults) is transient; a missing or non-executable
  // binary and an unwritable log are permanent -- retrying cannot help.
  static std::optional<Child> spawn(const std::vector<std::string>& argv,
                                    const std::string& log_path = "",
                                    std::string* error = nullptr,
                                    bool* transient = nullptr);

  // Like spawn(), but the child's stdout is connected to a pipe whose
  // non-blocking read end is returned in `*stdout_fd` (caller closes it);
  // only stderr goes to `log_path`. This is how a supervisor streams
  // framed journal rows from a remote worker while its chatter still
  // lands in the log. On failure `*stdout_fd` is -1.
  static std::optional<Child> spawn_piped(
      const std::vector<std::string>& argv, int* stdout_fd,
      const std::string& log_path = "", std::string* error = nullptr,
      bool* transient = nullptr);

  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // Kills (SIGKILL) and reaps the child if it is still running.
  ~Child();

  long pid() const { return pid_; }

  // A descriptor that turns readable once the child has exited (a Linux
  // pidfd), so a supervisor can block in poll(2) until a worker ends
  // instead of sleeping out a fixed tick. -1 where pidfd_open is
  // unavailable. Owned by the Child; valid until it is destroyed.
  int exit_fd() const { return pidfd_; }

  // Non-blocking: the exit status if the child has ended, else nullopt.
  // Idempotent after exit (the status is cached once reaped).
  std::optional<ExitStatus> poll();

  // Blocks until the child ends and returns its status.
  ExitStatus wait();

  // Sends `sig` (default SIGKILL). Returns false when the child already
  // ended (it still must be poll()ed/wait()ed for its status).
  bool kill(int sig = 9);

 private:
  explicit Child(long pid);

  long pid_ = -1;  // -1 once moved-from or reaped-and-cached
  int pidfd_ = -1;
  std::optional<ExitStatus> status_;
};

}  // namespace reap::common
