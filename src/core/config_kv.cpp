#include "reap/core/config_kv.hpp"

#include <charconv>
#include <sstream>
#include <string_view>

#include "reap/common/strings.hpp"
#include "reap/trace/spec2006.hpp"

namespace reap::core {
namespace {

using common::fail;
using common::fmt_double;
using common::parse_double;
using common::parse_u64;

}  // namespace

std::map<std::string, std::string> kv_parse(const std::string& text) {
  std::map<std::string, std::string> kv;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      kv[token] = "";
    } else {
      kv[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return kv;
}

std::string to_kv_string(const ExperimentConfig& cfg) {
  const double read_ratio =
      cfg.mtj.read_current.value / cfg.mtj.critical_current.value;
  std::string out;
  out.reserve(256);
  const auto put = [&out](const char* key, std::string_view value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  };
  const auto put_u64 = [&put](const char* key, std::uint64_t value) {
    char buf[20];
    put(key, std::string_view(buf, std::to_chars(buf, buf + sizeof buf,
                                                 value).ptr - buf));
  };
  put("workload", cfg.workload.name);
  put("policy", to_string(cfg.policy));
  put_u64("ecc_t", cfg.ecc_t);
  put("mtj", cfg.mtj.name);
  put("mtj_read_ratio", fmt_double(read_ratio));
  put_u64("instructions", cfg.instructions);
  put_u64("warmup", cfg.warmup_instructions);
  put("clock_ghz", fmt_double(cfg.clock_ghz));
  put_u64("seed", cfg.seed);
  put_u64("workload_seed", cfg.workload.seed);
  put_u64("scrub_every", cfg.scrub_every);
  put_u64("dirty_check", cfg.check_on_dirty_eviction ? 1 : 0);
  put_u64("l2_kb", cfg.hierarchy.l2.capacity_bytes / 1024);
  put_u64("l2_ways", cfg.hierarchy.l2.ways);
  put_u64("block_bytes", cfg.hierarchy.l2.block_bytes);
  return out;
}

std::optional<ExperimentConfig> config_from_kv(const std::string& text,
                                               std::string* error) {
  auto kv = kv_parse(text);
  ExperimentConfig cfg;

  const auto take = [&kv](const char* key) -> std::optional<std::string> {
    auto it = kv.find(key);
    if (it == kv.end()) return std::nullopt;
    std::string v = it->second;
    kv.erase(it);
    return v;
  };

  const auto wl = take("workload");
  if (!wl) {
    fail(error, "missing required key: workload");
    return std::nullopt;
  }
  const auto profile = trace::spec2006_profile(*wl);
  if (!profile) {
    fail(error, "unknown workload (not a bundled spec2006 profile): " + *wl);
    return std::nullopt;
  }
  cfg.workload = *profile;

  if (const auto v = take("policy")) {
    const auto kind = policy_from_string(*v);
    if (!kind) {
      fail(error, "unknown policy: " + *v);
      return std::nullopt;
    }
    cfg.policy = *kind;
  }

  std::uint64_t u = 0;
  double d = 0.0;
  const auto want_u64 = [&](const char* key, auto apply) {
    if (const auto v = take(key)) {
      if (!parse_u64(*v, u)) return fail(error, std::string("bad ") + key);
      apply(u);
    }
    return true;
  };
  const auto want_double = [&](const char* key, auto apply) {
    if (const auto v = take(key)) {
      if (!parse_double(*v, d)) return fail(error, std::string("bad ") + key);
      apply(d);
    }
    return true;
  };

  std::string mtj_name = cfg.mtj.name;
  if (const auto v = take("mtj")) mtj_name = *v;
  bool mtj_known = false;
  for (const auto& preset : mtj::all_presets()) {
    if (preset.name == mtj_name) {
      cfg.mtj = preset;
      mtj_known = true;
    }
  }
  if (!mtj_known && mtj_name != "ratio") {
    fail(error, "unknown mtj preset: " + mtj_name);
    return std::nullopt;
  }
  if (mtj_name == "ratio") cfg.mtj = mtj::with_read_ratio(0.693);

  bool ok = true;
  ok = ok && want_double("mtj_read_ratio", [&](double r) {
         cfg.mtj.read_current =
             common::Amperes{cfg.mtj.critical_current.value * r};
       });
  ok = ok && want_u64("ecc_t",
                      [&](std::uint64_t n) { cfg.ecc_t = unsigned(n); });
  ok = ok && want_u64("instructions",
                      [&](std::uint64_t n) { cfg.instructions = n; });
  ok = ok && want_u64("warmup",
                      [&](std::uint64_t n) { cfg.warmup_instructions = n; });
  ok = ok && want_double("clock_ghz", [&](double g) { cfg.clock_ghz = g; });
  ok = ok && want_u64("seed", [&](std::uint64_t n) { cfg.seed = n; });
  ok = ok && want_u64("workload_seed",
                      [&](std::uint64_t n) { cfg.workload.seed = n; });
  ok = ok && want_u64("scrub_every",
                      [&](std::uint64_t n) { cfg.scrub_every = n; });
  ok = ok && want_u64("dirty_check", [&](std::uint64_t n) {
         cfg.check_on_dirty_eviction = n != 0;
       });
  ok = ok && want_u64("l2_kb", [&](std::uint64_t n) {
         cfg.hierarchy.l2.capacity_bytes = n * 1024;
       });
  ok = ok && want_u64("l2_ways", [&](std::uint64_t n) {
         cfg.hierarchy.l2.ways = std::size_t(n);
       });
  ok = ok && want_u64("block_bytes", [&](std::uint64_t n) {
         cfg.hierarchy.l2.block_bytes = std::size_t(n);
       });
  if (!ok) return std::nullopt;

  if (!kv.empty()) {
    fail(error, "unknown key: " + kv.begin()->first);
    return std::nullopt;
  }
  return cfg;
}

}  // namespace reap::core
