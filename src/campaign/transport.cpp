#include "reap/campaign/transport.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "reap/common/fault.hpp"
#include "reap/common/frame.hpp"
#include "reap/common/strings.hpp"

namespace reap::campaign {
namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

std::string join(const std::vector<std::string>& items, char sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += items[i];
  }
  return out;
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto nl = s.find('\n', pos);
    const auto end = nl == std::string::npos ? s.size() : nl;
    out.push_back(s.substr(pos, end - pos));
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return out;
}

// Single-quotes `s` for a POSIX shell: the one quoting form with no
// special cases except the quote itself.
std::string shq(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

// The worker running remotely, its framed stdout stream feeding the
// authoritative local journal. The Child here is the ssh process; with
// the test stub (and `exec` in the remote command) it *is* the worker.
class SshWorker final : public WorkerHandle {
 public:
  SshWorker(common::Child child, int fd, std::string host,
            const std::string& journal_path, const std::string& log_path)
      : child_(std::move(child)),
        fd_(fd),
        host_(std::move(host)),
        journal_path_(journal_path) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(journal_path, ec);
    // Only the first attempt writes the header; every remote attempt
    // mirrors one (fresh remote journal), so later ones are dropped.
    want_header_ = ec || size == 0;
    log_.open(log_path, std::ios::app);
  }

  ~SshWorker() override {
    if (fd_ >= 0) ::close(fd_);
  }

  long pid() const override { return child_.pid(); }
  std::optional<common::ExitStatus> poll() override { return child_.poll(); }
  bool kill(int sig) override { return child_.kill(sig); }

  void pump() override { pump_stream(); }
  void drain() override { pump_stream(); }
  int exit_fd() const override { return child_.exit_fd(); }
  // A stalled stream is not read, so it must not wake the supervisor.
  int stream_fd() const override { return stalled_ ? -1 : fd_; }

  bool host_failure(const common::ExitStatus& status) const override {
    // 255 is ssh's own "connection/authentication failed" exit -- the
    // one code that can never be the worker's.
    return stream_lost_ || stalled_ ||
           (status.exited && status.code == 255);
  }

 private:
  // The connection died: whatever is in flight is gone, and the remote
  // side is unreachable -- kill our end so poll() reports the loss.
  void sever() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    stream_lost_ = true;
    child_.kill(9);
  }

  void pump_stream() {
    if (const auto f = common::fault::hit("transport.stream", host_)) {
      switch (f->kind) {
        case common::fault::Kind::stall:
          // The stream freezes open: bytes stop, the connection does
          // not close. Only the dispatcher's watchdog can notice.
          stalled_ = true;
          break;
        case common::fault::Kind::garble:
          garble_ = true;  // corrupt the next chunk read off the wire
          break;
        default:
          sever();  // drop (and any I/O kind): the connection is gone
          break;
      }
    }
    if (stalled_ || fd_ < 0) return;
    char buf[4096];
    for (;;) {
      const auto n = ::read(fd_, buf, sizeof buf);
      if (n > 0) {
        if (garble_) {
          buf[0] ^= 0x01;
          garble_ = false;
        }
        parser_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        deliver();
        continue;
      }
      if (n == 0) {  // EOF: remote stdout closed cleanly
        ::close(fd_);
        fd_ = -1;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      sever();
      break;
    }
  }

  void deliver() {
    for (const auto& p : parser_.take_payloads()) {
      const bool is_header = p.rfind("{\"format\":", 0) == 0;
      if (is_header) {
        if (!want_header_) continue;  // a later attempt's header: dup
      } else if (want_header_) {
        // A row cannot land before a header (the journal would be
        // unreadable); if the header frame was lost, drop the row -- the
        // shard re-runs it on the next attempt, which mirrors a fresh
        // header first.
        continue;
      }
      // Open lazily on the first verified payload: an attempt that dies
      // before delivering anything must not leave an empty journal file
      // behind -- a local-transport retry would refuse to --resume it.
      if (!journal_.is_open()) journal_.open(journal_path_, std::ios::app);
      journal_ << p << '\n';
      journal_.flush();
      if (is_header) want_header_ = false;
    }
    const auto noise = parser_.take_noise();
    for (const auto& line : noise) log_ << line << '\n';
    if (!noise.empty()) log_.flush();
  }

  common::Child child_;
  int fd_ = -1;
  std::string host_;
  common::FrameParser parser_;
  std::string journal_path_;
  std::ofstream journal_;  // local authoritative journal (append)
  std::ofstream log_;      // stream noise lands with the worker's stderr
  bool want_header_ = true;
  bool stream_lost_ = false;
  bool stalled_ = false;
  bool garble_ = false;
};

// The local worker is just a Child; the stream hooks stay no-ops.
class LocalWorker final : public WorkerHandle {
 public:
  explicit LocalWorker(common::Child child) : child_(std::move(child)) {}
  long pid() const override { return child_.pid(); }
  std::optional<common::ExitStatus> poll() override { return child_.poll(); }
  bool kill(int sig) override { return child_.kill(sig); }
  int exit_fd() const override { return child_.exit_fd(); }

 private:
  common::Child child_;
};

}  // namespace

std::optional<std::vector<HostSpec>> parse_hosts(const std::string& text,
                                                 std::string* error) {
  std::vector<HostSpec> hosts;
  const auto lines = split_lines(text);
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const auto at = [&](const std::string& msg) {
      fail(error, "hosts line " + std::to_string(li + 1) + ": " + msg);
      return std::nullopt;
    };
    std::string line = lines[li];
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto tokens = split_ws(line);
    if (tokens.empty()) continue;
    HostSpec h;
    h.name = tokens[0];
    for (const auto& prior : hosts)
      if (prior.name == h.name) return at("duplicate host " + h.name);
    std::size_t i = 1;
    if (i < tokens.size() && tokens[i].find('=') == std::string::npos) {
      std::uint64_t n = 0;
      if (!common::parse_u64(tokens[i], n) || n == 0)
        return at("bad slot count '" + tokens[i] + "'");
      h.slots = n;
      ++i;
    }
    for (; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == tokens[i].size())
        return at("bad option '" + tokens[i] + "' (want key=value)");
      const auto key = tokens[i].substr(0, eq);
      const auto value = tokens[i].substr(eq + 1);
      if (key == "binary")
        h.remote_binary = value;
      else if (key == "dir")
        h.remote_dir = value;
      else if (key == "ssh")
        h.ssh_command = value;
      else
        return at("unknown option '" + key + "'");
    }
    hosts.push_back(std::move(h));
  }
  if (hosts.empty()) {
    fail(error, "hosts file lists no hosts");
    return std::nullopt;
  }
  return hosts;
}

std::optional<std::vector<HostSpec>> parse_hosts_file(const std::string& path,
                                                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open hosts file: " + path);
    return std::nullopt;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return parse_hosts(text, error);
}

LocalTransport::LocalTransport(std::string binary, std::size_t slots)
    : binary_(std::move(binary)), slots_(std::max<std::size_t>(slots, 1)) {}

std::unique_ptr<WorkerHandle> LocalTransport::launch(const WorkerPlan& plan,
                                                     std::string* error,
                                                     bool* transient) {
  std::vector<std::string> argv = {binary_};
  argv.insert(argv.end(), plan.flags.begin(), plan.flags.end());
  argv.push_back("--journal=" + plan.journal_path);
  argv.push_back("--resume");
  if (!plan.skip.empty())
    argv.push_back("--skip-rows=" + join(plan.skip, ','));
  auto child = common::Child::spawn(argv, plan.log_path, error, transient);
  if (!child) return nullptr;
  return std::make_unique<LocalWorker>(std::move(*child));
}

SshTransport::SshTransport(HostSpec spec) : spec_(std::move(spec)) {
  if (spec_.ssh_command.empty()) spec_.ssh_command = "ssh";
  if (spec_.slots == 0) spec_.slots = 1;
}

std::vector<std::string> SshTransport::ssh_argv(
    const std::string& remote_cmd) const {
  // Mimic ssh's calling convention: the remote command is one argument,
  // run by the remote shell (which is why every operand is shq()ed).
  auto argv = split_ws(spec_.ssh_command);
  argv.push_back(spec_.name);
  argv.push_back(remote_cmd);
  return argv;
}

HandshakeStatus SshTransport::handshake(const std::string& expected_version,
                                        const std::string& trace_dir,
                                        std::string* error,
                                        std::string* note) {
  bool garble = false;
  if (const auto f = common::fault::hit("transport.connect", spec_.name)) {
    if (f->kind == common::fault::Kind::garble) {
      garble = true;
    } else {
      fail(error, "host " + spec_.name + ": injected " +
                      common::fault::to_string(f->kind));
      return HandshakeStatus::unreachable;
    }
  }

  std::string cmd = shq(spec_.remote_binary) + " --version 2>&1";
  if (!trace_dir.empty())
    cmd += "; if test -d " + shq(trace_dir) +
           "; then echo TRACEDIR:ok; else echo TRACEDIR:missing; fi";

  int fd = -1;
  std::string spawn_error;
  auto child = common::Child::spawn_piped(ssh_argv(cmd), &fd, "",
                                          &spawn_error, nullptr);
  if (!child) {
    fail(error, "host " + spec_.name + ": " + spawn_error);
    return HandshakeStatus::unreachable;
  }
  std::string out;
  char buf[4096];
  while (fd >= 0) {
    const auto n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (fd >= 0) ::close(fd);
  const auto status = child->wait();
  if (garble && !out.empty()) out[0] ^= 0x01;

  if (!status.success()) {
    fail(error, "host " + spec_.name + ": handshake failed (" +
                    status.describe() + ")");
    return HandshakeStatus::unreachable;
  }

  std::string version;
  trace_dir_missing_ = false;
  for (const auto& line : split_lines(out)) {
    if (line == "TRACEDIR:ok") continue;
    if (line == "TRACEDIR:missing") {
      trace_dir_missing_ = true;
      continue;
    }
    if (version.empty() && !line.empty()) version = line;
  }
  if (!expected_version.empty() && version != expected_version) {
    fail(error, "host " + spec_.name + ": worker version skew: host runs '" +
                    version + "' but this dispatcher expects '" +
                    expected_version + "'");
    return HandshakeStatus::mismatch;
  }
  if (trace_dir_missing_ && note)
    *note = "host " + spec_.name + ": no trace store at " + trace_dir +
            "; its workers fall back to trace generation";
  return HandshakeStatus::ok;
}

std::unique_ptr<WorkerHandle> SshTransport::launch(const WorkerPlan& plan,
                                                   std::string* error,
                                                   bool* transient) {
  if (transient) *transient = false;
  if (const auto f = common::fault::hit("transport.connect", spec_.name)) {
    if (transient) *transient = true;  // connections come back; retry
    fail(error, "host " + spec_.name + ": injected " +
                    common::fault::to_string(f->kind));
    return nullptr;
  }

  const std::string remote_journal =
      spec_.remote_dir + "/shard_" + std::to_string(plan.shard) + ".journal";
  // `exec` so the launcher process *is* the worker: the dispatcher's
  // SIGTERM/SIGKILL land on the thing doing the work, not a wrapper.
  std::string cmd = "mkdir -p " + shq(spec_.remote_dir) + " && exec " +
                    shq(spec_.remote_binary);
  for (const auto& flag : plan.flags) {
    // The handshake found no trace store on this host: generation
    // fallback instead of a fleet of ENOENT deaths.
    if (trace_dir_missing_ && flag.rfind("--trace-dir=", 0) == 0) continue;
    cmd += " " + shq(flag);
  }
  cmd += " " + shq("--journal=" + remote_journal);
  cmd += " --journal-stdout";
  // Fresh remote journal every attempt; everything already durable
  // locally is excluded here, so a relaunch cannot duplicate a row.
  std::vector<std::string> skip = plan.skip;
  skip.insert(skip.end(), plan.done.begin(), plan.done.end());
  if (!skip.empty()) cmd += " " + shq("--skip-rows=" + join(skip, ','));

  int fd = -1;
  auto child = common::Child::spawn_piped(ssh_argv(cmd), &fd, plan.log_path,
                                          error, transient);
  if (!child) return nullptr;
  return std::make_unique<SshWorker>(std::move(*child), fd, spec_.name,
                                     plan.journal_path, plan.log_path);
}

}  // namespace reap::campaign
