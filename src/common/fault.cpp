#include "reap/common/fault.hpp"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "reap/common/strings.hpp"

namespace reap::common::fault {
namespace {

struct ArmedFault {
  std::string site;
  Kind kind = Kind::eio;
  bool every = false;       // '*': fire on every matching execution
  std::uint64_t nth = 1;    // else fire exactly on the nth match
  std::uint64_t param = 0;
  std::string match;        // context substring filter ("" = any)
  std::uint64_t count = 0;  // matching executions observed so far
};

// Guarded by g_mu. Faults are armed once at process start and read on a
// path that is already "a failure is happening", so a plain mutex is fine.
std::mutex g_mu;
std::vector<ArmedFault>& registry() {
  static std::vector<ArmedFault> faults;
  return faults;
}

bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

std::optional<Kind> kind_from(const std::string& name) {
  if (name == "crash") return Kind::crash;
  if (name == "hang") return Kind::hang;
  if (name == "eio") return Kind::eio;
  if (name == "enospc") return Kind::enospc;
  if (name == "torn-write") return Kind::torn_write;
  if (name == "slow") return Kind::slow;
  if (name == "drop") return Kind::drop;
  if (name == "stall") return Kind::stall;
  if (name == "garble") return Kind::garble;
  return std::nullopt;
}

}  // namespace

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::crash: return "crash";
    case Kind::hang: return "hang";
    case Kind::eio: return "eio";
    case Kind::enospc: return "enospc";
    case Kind::torn_write: return "torn-write";
    case Kind::slow: return "slow";
    case Kind::drop: return "drop";
    case Kind::stall: return "stall";
    case Kind::garble: return "garble";
  }
  return "?";
}

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> sites = {
      "journal.write",  // one row append about to stream to the journal
      "journal.fsync",  // the flush that makes an appended row durable
      "worker.spawn",   // dispatcher launching a reap_campaign worker
      "runner.point",   // one grid point about to run (context: row key)
      "tailer.read",    // supervisor tailing a live worker journal
      "transport.connect",  // dispatcher reaching a worker host (context:
                            // host name) -- handshake or launch
      "transport.stream",   // the journal stream from a remote worker
                            // (context: host name)
  };
  return sites;
}

namespace detail {

std::atomic<unsigned> g_armed{0};

std::optional<Hit> hit_slow(const char* site, std::string_view context) {
  Hit fired;
  bool io_hit = false;
  {
    std::lock_guard lock(g_mu);
    for (auto& f : registry()) {
      if (f.site != site) continue;
      if (!f.match.empty() &&
          context.find(f.match) == std::string_view::npos)
        continue;
      ++f.count;
      if (!f.every && f.count != f.nth) continue;
      switch (f.kind) {
        case Kind::crash:
          std::_Exit(kCrashExit);
        case Kind::hang:
          // Hold nothing back (including this mutex: a hung process stops
          // hitting other sites too). Only SIGKILL ends a real hang.
          for (;;)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        case Kind::slow:
          break;  // sleep outside the lock
        case Kind::eio:
        case Kind::enospc:
        case Kind::torn_write:
        case Kind::drop:
        case Kind::stall:
        case Kind::garble:
          break;
      }
      fired = {f.kind, f.param};
      io_hit = true;
      break;
    }
  }
  if (!io_hit) return std::nullopt;
  if (fired.kind == Kind::slow) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fired.param));
    return std::nullopt;  // slowness is not an error: the call proceeds
  }
  return fired;
}

}  // namespace detail

bool arm(const std::string& spec, std::string* error) {
  if (spec.empty()) return fail(error, "empty fault spec");
  std::vector<ArmedFault> fresh;
  for (const auto& one : split(spec, ',')) {
    if (one.empty()) continue;
    const auto tokens = split(one, ':');
    if (tokens.size() < 2)
      return fail(error, "fault '" + one + "': want site:kind[:...]");
    ArmedFault f;
    f.site = tokens[0];
    const auto& sites = known_sites();
    bool known = false;
    for (const auto& s : sites) known = known || s == f.site;
    if (!known) return fail(error, "unknown fault site: " + f.site);
    const auto kind = kind_from(tokens[1]);
    if (!kind) return fail(error, "unknown fault kind: " + tokens[1]);
    f.kind = *kind;
    // Optional tail tokens: '*' or the occurrence N first, then a numeric
    // PARAM, and key=SUBSTR anywhere.
    bool saw_nth = false;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      const auto& tok = tokens[i];
      if (tok == "*") {
        f.every = true;
        saw_nth = true;
      } else if (tok.rfind("key=", 0) == 0) {
        f.match = tok.substr(4);
        if (f.match.empty())
          return fail(error, "fault '" + one + "': empty key= filter");
      } else {
        std::uint64_t n = 0;
        if (!parse_u64(tok, n))
          return fail(error, "fault '" + one + "': bad token '" + tok + "'");
        if (!saw_nth) {
          if (n == 0)
            return fail(error, "fault '" + one + "': occurrence is 1-based");
          f.nth = n;
          saw_nth = true;
        } else {
          f.param = n;
        }
      }
    }
    fresh.push_back(std::move(f));
  }
  std::lock_guard lock(g_mu);
  for (auto& f : fresh) registry().push_back(std::move(f));
  detail::g_armed.store(static_cast<unsigned>(registry().size()),
                        std::memory_order_relaxed);
  return true;
}

bool arm_from_env(std::string* error) {
  const char* spec = std::getenv(kEnvVar);
  if (!spec || !*spec) return true;
  return arm(spec, error);
}

void disarm() {
  std::lock_guard lock(g_mu);
  registry().clear();
  detail::g_armed.store(0, std::memory_order_relaxed);
}

}  // namespace reap::common::fault
