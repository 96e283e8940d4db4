#include "reap/campaign/spec.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "reap/campaign/seed.hpp"
#include "reap/common/strings.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/spec2006.hpp"

namespace reap::campaign {
namespace {

// A comma-separated axis list; empty items are dropped.
std::vector<std::string> split_list(const std::string& s) {
  auto out = common::split(s, ',');
  std::erase(out, std::string());
  return out;
}

using common::fail;

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

std::size_t CampaignSpec::size() const {
  const std::size_t ratios = read_ratios.empty() ? 1 : read_ratios.size();
  const std::size_t scrubs = scrub_everys.empty() ? 1 : scrub_everys.size();
  return workloads.size() * policies.size() * ecc_ts.size() * scrubs *
         ratios * seeds.size();
}

namespace {

// Row keys are pure functions of coordinate *values*, so every axis must
// hold distinct values or two grid points would share a key (and the
// journal/resume machinery would treat them as one row). A duplicate axis
// value is always a spec mistake -- duplicated environment values even
// produce bit-identical experiments -- so reject it loudly.
template <typename T>
void require_distinct(const std::vector<T>& values, const char* axis) {
  for (std::size_t i = 0; i < values.size(); ++i)
    for (std::size_t j = i + 1; j < values.size(); ++j)
      if (values[i] == values[j])
        throw std::invalid_argument(
            std::string("campaign spec: duplicate value on axis ") + axis);
}

// The spec's workload profiles, after every check expand() makes.
std::vector<trace::WorkloadProfile> checked_profiles(const CampaignSpec& spec) {
  if (spec.workloads.empty())
    throw std::invalid_argument("campaign spec: no workloads");
  if (spec.policies.empty())
    throw std::invalid_argument("campaign spec: no policies");
  if (spec.ecc_ts.empty())
    throw std::invalid_argument("campaign spec: no ecc_t values");
  if (spec.seeds.empty())
    throw std::invalid_argument("campaign spec: no seeds");
  require_distinct(spec.workloads, "workloads");
  require_distinct(spec.policies, "policies");
  require_distinct(spec.ecc_ts, "ecc");
  require_distinct(spec.scrub_everys, "scrub_every");
  require_distinct(spec.read_ratios, "read_ratios");
  require_distinct(spec.seeds, "seeds");

  std::vector<trace::WorkloadProfile> profiles;
  profiles.reserve(spec.workloads.size());
  for (const auto& name : spec.workloads) {
    const auto p = trace::spec2006_profile(name);
    if (!p) throw std::invalid_argument("campaign spec: unknown workload " + name);
    profiles.push_back(*p);
  }
  return profiles;
}

void require_shard(const char* what, std::size_t shard_index,
                   std::size_t shard_count) {
  if (shard_count == 0)
    throw std::invalid_argument(std::string(what) +
                                ": shard_count must be positive");
  if (shard_index >= shard_count)
    throw std::invalid_argument(std::string(what) +
                                ": shard_index out of range");
}

}  // namespace

void validate(const CampaignSpec& spec) { checked_profiles(spec); }

std::vector<CampaignPoint> expand(const CampaignSpec& spec) {
  return expand(spec, 0, 1);
}

std::size_t shard_of(std::size_t index, std::size_t shard_count) {
  return index % shard_count;
}

std::vector<CampaignPoint> expand(const CampaignSpec& spec,
                                  std::size_t shard_index,
                                  std::size_t shard_count) {
  require_shard("shard", shard_index, shard_count);
  const auto profiles = checked_profiles(spec);

  const std::size_t n_ratios =
      spec.read_ratios.empty() ? 1 : spec.read_ratios.size();
  const std::size_t n_scrubs =
      spec.scrub_everys.empty() ? 1 : spec.scrub_everys.size();

  std::vector<CampaignPoint> points;
  points.reserve(shard_size(spec.size(), shard_index, shard_count));
  std::size_t index = 0;  // expansion position of the point at hand
  for (std::size_t w = 0; w < profiles.size(); ++w)
    for (std::size_t p = 0; p < spec.policies.size(); ++p)
      for (std::size_t e = 0; e < spec.ecc_ts.size(); ++e)
       for (std::size_t sc = 0; sc < n_scrubs; ++sc)
        for (std::size_t r = 0; r < n_ratios; ++r)
          for (std::size_t s = 0; s < spec.seeds.size(); ++s, ++index) {
            if (shard_of(index, shard_count) != shard_index) continue;
            CampaignPoint pt;
            pt.index = index;
            pt.workload_i = w;
            pt.policy_i = p;
            pt.ecc_i = e;
            pt.scrub_i = sc;
            pt.ratio_i = r;
            pt.seed_i = s;

            core::ExperimentConfig cfg = spec.base;
            cfg.workload = profiles[w];
            cfg.policy = spec.policies[p];
            cfg.ecc_t = spec.ecc_ts[e];
            if (!spec.scrub_everys.empty())
              cfg.scrub_every = spec.scrub_everys[sc];
            if (!spec.read_ratios.empty())
              cfg.mtj = mtj::with_read_ratio(spec.read_ratios[r]);

            // Seeds are derived from the *environment* coordinates only
            // (workload, operating point, replica) -- never from the
            // design axes under test (policy, ecc_t) -- so that, e.g.,
            // the REAP and conventional points of one comparison replay
            // the exact same trace (paired comparison, as the paper's
            // figures require).
            const std::uint64_t env_index =
                (w * n_ratios + r) * spec.seeds.size() + s;
            const std::uint64_t derived =
                derive_seed(spec.campaign_seed, env_index, spec.seeds[s]);
            cfg.seed = derived;
            cfg.workload.seed = derive_companion_seed(derived);

            // Row key from coordinate values (see CampaignPoint::key).
            const std::string env_suffix =
                "/rr" +
                (spec.read_ratios.empty()
                     ? std::string("-")
                     : common::fmt_double(spec.read_ratios[r])) +
                "/s" + std::to_string(spec.seeds[s]);
            std::string key = spec.workloads[w];
            key += '/';
            key += core::to_string(spec.policies[p]);
            key += "/t" + std::to_string(spec.ecc_ts[e]);
            key += "/sc" + (spec.scrub_everys.empty()
                                ? std::string("-")
                                : std::to_string(spec.scrub_everys[sc]));
            key += env_suffix;
            pt.key = std::move(key);
            // Trace identity: the environment coordinates alone (the seed
            // derivation's inputs), so equal trace_key <=> identical trace.
            pt.trace_key = spec.workloads[w] + env_suffix;

            pt.config = std::move(cfg);
            points.push_back(std::move(pt));
          }
  return points;
}

std::vector<CampaignPoint> shard(const std::vector<CampaignPoint>& points,
                                 std::size_t shard_index,
                                 std::size_t shard_count) {
  require_shard("shard", shard_index, shard_count);
  std::vector<CampaignPoint> out;
  out.reserve(points.size() / shard_count + 1);
  for (const auto& pt : points)
    if (shard_of(pt.index, shard_count) == shard_index) out.push_back(pt);
  return out;
}

std::size_t shard_size(std::size_t n_points, std::size_t shard_index,
                       std::size_t shard_count) {
  require_shard("shard_size", shard_index, shard_count);
  // The closed form of counting shard_of's stripe.
  if (shard_index >= n_points) return 0;
  return (n_points - shard_index - 1) / shard_count + 1;
}

TracePlan trace_plan(const std::vector<CampaignPoint>& points) {
  TracePlan plan;
  std::unordered_set<std::string> seen;
  for (const auto& pt : points) {
    if (!seen.insert(pt.trace_key).second) continue;
    plan.largest_bytes = std::max(
        plan.largest_bytes,
        trace::estimate_trace_bytes(
            pt.config.workload,
            pt.config.warmup_instructions + pt.config.instructions));
  }
  plan.groups = seen.size();
  return plan;
}

TracePlan trace_plan(const CampaignSpec& spec) {
  // A trace key is (workload, read ratio, seed replica), and every axis
  // holds distinct values; an estimate reads the profile's op mix and the
  // window only, so the seed a point derives does not change it.
  TracePlan plan;
  for (const auto& profile : checked_profiles(spec))
    plan.largest_bytes = std::max(
        plan.largest_bytes,
        trace::estimate_trace_bytes(profile, spec.base.warmup_instructions +
                                                 spec.base.instructions));
  plan.groups = spec.workloads.size() *
                std::max<std::size_t>(1, spec.read_ratios.size()) *
                spec.seeds.size();
  return plan;
}

std::string canonical_string(const CampaignSpec& spec) {
  std::ostringstream out;
  out << "reap-campaign-spec-v1\n";
  out << "name=" << spec.name << '\n';
  const auto list = [&out](const char* key, const auto& values,
                           const auto& fmt) {
    out << key << '=';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out << ',';
      out << fmt(values[i]);
    }
    out << '\n';
  };
  list("workloads", spec.workloads, [](const std::string& s) { return s; });
  list("policies", spec.policies, [](core::PolicyKind p) {
    return core::to_string(p);
  });
  list("ecc", spec.ecc_ts, [](unsigned t) { return std::to_string(t); });
  if (!spec.scrub_everys.empty())
    list("scrub_every", spec.scrub_everys,
         [](std::uint64_t v) { return std::to_string(v); });
  if (!spec.read_ratios.empty())
    list("read_ratios", spec.read_ratios,
         [](double v) { return common::fmt_double(v); });
  list("seeds", spec.seeds, [](std::uint64_t v) { return std::to_string(v); });
  out << "campaign_seed=" << spec.campaign_seed << '\n';
  // Base-config fields a spec (or library caller) can vary. The mtj line
  // covers base operating points set outside the read_ratios axis.
  const auto& b = spec.base;
  out << "instructions=" << b.instructions << '\n'
      << "warmup=" << b.warmup_instructions << '\n'
      << "clock_ghz=" << common::fmt_double(b.clock_ghz) << '\n'
      << "scrub_every=" << b.scrub_every << '\n'
      << "dirty_check=" << (b.check_on_dirty_eviction ? 1 : 0) << '\n'
      // Raw bytes, not KB: rounding here would let two configs in the
      // same 1 KB bucket share a spec hash and cross-resume.
      << "l2_bytes=" << b.hierarchy.l2.capacity_bytes << '\n'
      << "l2_ways=" << b.hierarchy.l2.ways << '\n'
      << "block_bytes=" << b.hierarchy.l2.block_bytes << '\n'
      << "mtj=" << b.mtj.name << '\n'
      << "mtj_read_ratio="
      << common::fmt_double(b.mtj.read_current.value /
                            b.mtj.critical_current.value)
      << '\n';
  return out.str();
}

std::uint64_t spec_hash(const CampaignSpec& spec) {
  return common::fnv1a64(canonical_string(spec));
}

std::optional<CampaignSpec> CampaignSpec::from_kv(
    const std::map<std::string, std::string>& kv, std::string* error) {
  CampaignSpec spec;
  bool ok = true;

  // Strict value parsers: reject garbage, trailing text, and empty lists
  // rather than silently running a wrong-but-plausible campaign.
  const auto u64_value = [&](const std::string& key, const std::string& v,
                             std::uint64_t& out) {
    if (common::parse_u64(v, out)) return true;
    ok = fail(error, "bad value for " + key + ": '" + v + "'");
    return false;
  };
  const auto u64_list = [&](const std::string& key, const std::string& v,
                            std::vector<std::uint64_t>& out) {
    out.clear();
    for (const auto& item : split_list(v)) {
      std::uint64_t n = 0;
      if (!u64_value(key, item, n)) return;
      out.push_back(n);
    }
    if (out.empty()) ok = fail(error, "empty list for " + key);
  };

  for (const auto& [key, value] : kv) {
    if (!ok) break;
    if (key == "name") {
      spec.name = value;
    } else if (key == "workloads") {
      spec.workloads = value == "all" ? trace::spec2006_names()
                                      : split_list(value);
      if (spec.workloads.empty())
        ok = fail(error, "empty list for workloads");
    } else if (key == "policies") {
      spec.policies.clear();
      if (value == "all") {
        spec.policies = core::all_policies();
      } else {
        for (const auto& name : split_list(value)) {
          const auto kind = core::policy_from_string(name);
          if (!kind) {
            ok = fail(error, "unknown policy: " + name);
            break;
          }
          spec.policies.push_back(*kind);
        }
        if (ok && spec.policies.empty())
          ok = fail(error, "empty list for policies");
      }
    } else if (key == "ecc") {
      std::vector<std::uint64_t> raw;
      u64_list(key, value, raw);
      spec.ecc_ts.clear();
      for (const auto n : raw) spec.ecc_ts.push_back(unsigned(n));
    } else if (key == "read_ratios") {
      spec.read_ratios.clear();
      for (const auto& v : split_list(value)) {
        double d = 0.0;
        if (!common::parse_double(v, d)) {
          ok = fail(error, "bad value for read_ratios: '" + v + "'");
          break;
        }
        spec.read_ratios.push_back(d);
      }
      if (ok && spec.read_ratios.empty())
        ok = fail(error, "empty list for read_ratios");
    } else if (key == "seeds") {
      u64_list(key, value, spec.seeds);
    } else if (key == "campaign_seed") {
      u64_value(key, value, spec.campaign_seed);
    } else if (key == "instructions") {
      u64_value(key, value, spec.base.instructions);
    } else if (key == "warmup") {
      u64_value(key, value, spec.base.warmup_instructions);
    } else if (key == "clock_ghz") {
      if (!common::parse_double(value, spec.base.clock_ghz))
        ok = fail(error, "bad value for clock_ghz: '" + value + "'");
    } else if (key == "scrub_every") {
      // A list populates the scrub axis; a single value degenerates to the
      // old scalar behaviour (axis of one).
      u64_list(key, value, spec.scrub_everys);
    } else if (key == "dirty_check") {
      spec.base.check_on_dirty_eviction = value == "1" || value == "true";
    } else if (key == "l2_kb") {
      std::uint64_t n = 0;
      if (u64_value(key, value, n))
        spec.base.hierarchy.l2.capacity_bytes = n * 1024;
    } else if (key == "l2_ways") {
      std::uint64_t n = 0;
      if (u64_value(key, value, n))
        spec.base.hierarchy.l2.ways = std::size_t(n);
    } else if (key == "block_bytes") {
      std::uint64_t n = 0;
      if (u64_value(key, value, n))
        spec.base.hierarchy.l2.block_bytes = std::size_t(n);
    } else {
      ok = fail(error, "unknown spec key: " + key);
    }
  }
  if (!ok) return std::nullopt;
  if (spec.workloads.empty()) {
    fail(error, "spec missing: workloads");
    return std::nullopt;
  }
  if (spec.policies.empty()) {
    fail(error, "spec missing: policies");
    return std::nullopt;
  }
  return spec;
}

std::optional<std::map<std::string, std::string>> parse_spec_file(
    const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open spec file: " + path);
    return std::nullopt;
  }
  std::map<std::string, std::string> kv;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      fail(error, path + ":" + std::to_string(lineno) +
                           ": expected `key = value`");
      return std::nullopt;
    }
    kv[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }
  return kv;
}

const std::vector<std::string>& spec_cli_keys() {
  // Mirrors the from_kv dispatch above; from_kv rejects anything else, so
  // a key added there without being listed here fails loudly on the CLI.
  static const std::vector<std::string> keys = {
      "name",        "workloads",     "policies",    "ecc",
      "read_ratios", "seeds",         "campaign_seed", "instructions",
      "warmup",      "clock_ghz",     "scrub_every", "dirty_check",
      "l2_kb",       "l2_ways",       "block_bytes"};
  return keys;
}

std::optional<CliSpec> spec_from_cli(const common::CliArgs& args,
                                     std::string* error) {
  CliSpec out;
  if (args.has("spec")) {
    auto file_kv = parse_spec_file(args.get_string("spec", ""), error);
    if (!file_kv) return std::nullopt;
    out.kv = std::move(*file_kv);
  }
  for (const auto& key : spec_cli_keys())
    if (args.has(key)) out.kv[key] = args.get_string(key, "");
  if (out.kv.empty()) return out;
  auto spec = CampaignSpec::from_kv(out.kv, error);
  if (!spec) {
    if (error) *error = "bad spec: " + *error;
    return std::nullopt;
  }
  out.spec = std::move(*spec);
  return out;
}

}  // namespace reap::campaign
