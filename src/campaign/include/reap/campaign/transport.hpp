// Worker transports: how the dispatcher launches and observes workers.
//
// The dispatcher's supervision loop (tail journals, watchdog stalls,
// restart with backoff, quarantine poison) does not care *where* a
// `reap_campaign` worker runs -- only that rows land in a local journal
// it can tail. A WorkerTransport owns that difference:
//
//   LocalTransport  today's path: fork/exec the binary, journal written
//                   directly to the shard's local journal via --resume.
//   SshTransport    the worker runs on a remote host (launched through
//                   an ssh-style command). It journals to its *own*
//                   disk and mirrors every journal line over stdout as
//                   CRC32C-framed records (reap_campaign
//                   --journal-stdout, common/frame.hpp); the transport
//                   decodes the stream and appends intact rows to the
//                   authoritative local journal. The tailer, watchdog,
//                   and byte-identical merge then work unchanged.
//
// Failure mapping is the point of the design: a dropped connection, a
// stalled stream, and a corrupted frame all leave the local journal a
// durable prefix of the shard's work, so the existing restart machinery
// recovers them -- relaunch the shard, skip the rows that made it,
// re-run the rest. Remote attempts always start a fresh remote journal
// and are told what is already done via --skip-rows, so a reconnect
// never duplicates a row. Hosts that keep failing are quarantined by
// the dispatcher (drained from the slot pool); see dispatch.hpp.
//
// Fault sites `transport.connect` (handshake/launch) and
// `transport.stream` (the journal stream), with kinds drop/stall/
// garble, drive every one of these paths in tests.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reap/common/subprocess.hpp"

namespace reap::campaign {

// One line of a --hosts file:
//
//   <host> [slots] [binary=PATH] [dir=PATH] [ssh=CMD]   # comment
//
// `slots` defaults to 1. `binary` and `dir` default to the dispatcher's
// campaign binary and <work_dir>/remote-<host>; `ssh` is the command the
// host is reached through (default "ssh", split on spaces -- a test stub
// like tools/fake_ssh.sh slots in here). The reserved host name "local"
// runs its slots in-process-host through LocalTransport.
struct HostSpec {
  std::string name;
  std::size_t slots = 1;
  std::string remote_binary;
  std::string remote_dir;
  std::string ssh_command;
};

// Parses hosts-file text / the file at `path`. Returns nullopt and sets
// `error` (with a line number) on bad grammar, zero hosts, a duplicate
// host, or an unreadable file.
std::optional<std::vector<HostSpec>> parse_hosts(const std::string& text,
                                                 std::string* error = nullptr);
std::optional<std::vector<HostSpec>> parse_hosts_file(
    const std::string& path, std::string* error = nullptr);

// Everything a transport needs to launch one shard attempt. The
// dispatcher fills it; the transport turns it into an argv.
struct WorkerPlan {
  std::size_t shard = 0;
  // Spec/shard/threads/trace flags, transport-independent. The transport
  // adds the journal and row-exclusion flags itself, because those are
  // where local and remote execution genuinely differ.
  std::vector<std::string> flags;
  // Keys the attempt must not run (quarantined + probe exclusions).
  std::vector<std::string> skip;
  // Keys already durable in the local journal. Local workers skip them
  // via --resume on that same journal; remote workers (fresh remote
  // journal every attempt) get them appended to --skip-rows.
  std::vector<std::string> done;
  std::string journal_path;  // authoritative local journal
  std::string log_path;
};

// One running worker, however it runs. poll()/kill() mirror
// common::Child; pump() gives stream-backed workers a place to
// move bytes from the wire into the local journal (no-ops for local
// workers). Destroying a handle kills and reaps whatever is running.
class WorkerHandle {
 public:
  virtual ~WorkerHandle() = default;

  virtual long pid() const = 0;
  virtual std::optional<common::ExitStatus> poll() = 0;
  virtual bool kill(int sig = 9) = 0;

  // Called every supervisor tick while the worker runs, and once more
  // after poll() reports its exit: consume whatever the stream has
  // buffered (never blocks), so rows that landed just before death are
  // not lost.
  virtual void pump() {}

  // Descriptors the supervisor blocks on in poll(2) between ticks, or -1
  // for none: exit_fd() turns readable when the worker exits (its
  // pidfd), stream_fd() when pump() has bytes to move.
  virtual int exit_fd() const { return -1; }
  virtual int stream_fd() const { return -1; }

  // Whether `status` says the *machine/connection* failed (stream lost,
  // stalled, ssh's exit 255) rather than the worker itself -- what the
  // dispatcher counts toward quarantining the host instead of burning
  // the shard's failure budget.
  virtual bool host_failure(const common::ExitStatus& status) const {
    (void)status;
    return false;
  }
};

enum class HandshakeStatus {
  ok,
  unreachable,  // host cannot run workers now; dispatch degrades past it
  mismatch,     // host runs a *different build* -- a hard configuration
                // error (fleet skew corrupts the merge), never degraded
};

class WorkerTransport {
 public:
  virtual ~WorkerTransport() = default;

  virtual const std::string& host() const = 0;
  virtual std::size_t slots() const = 0;
  virtual bool local() const = 0;

  // Pre-flight check, once per dispatch. Remote transports verify the
  // worker binary answers --version with this build's
  // build_info_line("reap_campaign") and probe `trace_dir` (empty = don't
  // probe); a missing trace dir is reported once through `note` and the
  // transport launches workers without --trace-dir (falling back to
  // generation) instead of silently diverging. `error` is set for both
  // failure statuses.
  virtual HandshakeStatus handshake(const std::string& trace_dir,
                                    std::string* error,
                                    std::string* note) = 0;

  // Starts one worker for `plan`. Returns nullptr and sets `error` on
  // failure; `transient` follows Child::spawn's retry classification.
  virtual std::unique_ptr<WorkerHandle> launch(const WorkerPlan& plan,
                                               std::string* error,
                                               bool* transient) = 0;
};

// Today's path, unchanged semantics: fork/exec `binary` with the shard
// journal and --resume; stdout+stderr go to the shard log.
class LocalTransport final : public WorkerTransport {
 public:
  LocalTransport(std::string binary, std::size_t slots);

  const std::string& host() const override { return host_; }
  std::size_t slots() const override { return slots_; }
  bool local() const override { return true; }
  HandshakeStatus handshake(const std::string&, std::string*,
                            std::string*) override {
    return HandshakeStatus::ok;
  }
  std::unique_ptr<WorkerHandle> launch(const WorkerPlan& plan,
                                       std::string* error,
                                       bool* transient) override;

 private:
  std::string binary_;
  std::size_t slots_;
  std::string host_ = "local";
};

// Launches workers on `spec.name` through `spec.ssh_command` and feeds
// their framed stdout stream into the local shard journal. The caller
// must resolve remote_binary and remote_dir before constructing.
class SshTransport final : public WorkerTransport {
 public:
  explicit SshTransport(HostSpec spec);

  const std::string& host() const override { return spec_.name; }
  std::size_t slots() const override { return spec_.slots; }
  bool local() const override { return false; }
  HandshakeStatus handshake(const std::string& trace_dir, std::string* error,
                            std::string* note) override;
  std::unique_ptr<WorkerHandle> launch(const WorkerPlan& plan,
                                       std::string* error,
                                       bool* transient) override;

 private:
  std::vector<std::string> ssh_argv(const std::string& remote_cmd) const;

  HostSpec spec_;
  // Set by handshake: the host has no trace store, so --trace-dir is
  // withheld from its launches (generation fallback).
  bool trace_dir_missing_ = false;
};

}  // namespace reap::campaign
