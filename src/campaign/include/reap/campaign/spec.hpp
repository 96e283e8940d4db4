// CampaignSpec: a declarative parameter grid over ExperimentConfig.
//
// A campaign is the cross-product
//
//   workloads x policies x ecc_t x mtj operating points x seed replicas
//
// expanded -- in that fixed row-major order, seeds fastest -- into a
// deterministic list of CampaignPoints. Each point's RNG seeds are derived
// via seed.hpp from the campaign seed and the point's *environment*
// coordinates (workload, operating point, seed replica); the design axes
// under test (policy, ecc_t) are deliberately excluded so that the points
// of one paired comparison replay identical traces. The expansion is a
// pure function of the spec: any two processes that expand the same spec
// agree on every config, which is what makes sharding across threads (or
// machines) safe.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "reap/common/cli.hpp"
#include "reap/core/experiment.hpp"

namespace reap::campaign {

struct CampaignSpec {
  std::string name = "campaign";

  // Template for every point; the grid axes below overwrite their fields.
  core::ExperimentConfig base;

  // Grid axes. `workloads` and `policies` must be non-empty to expand.
  std::vector<std::string> workloads;        // spec2006 profile names
  std::vector<core::PolicyKind> policies;
  std::vector<unsigned> ecc_ts = {1};
  // Scrub periods (design axis, like policy/ecc: excluded from seed
  // derivation); empty = keep base.scrub_every. Only the scrub_piggyback
  // policy reads the value; for other policies the axis just replicates
  // points, so sweep it with policies={scrub} (reference policies go in a
  // separate campaign — same campaign_seed and environment axes replay
  // identical traces across campaigns).
  std::vector<std::uint64_t> scrub_everys;
  // MTJ operating points as I_read/I_C0 ratios; empty = keep base.mtj.
  std::vector<double> read_ratios;
  // Seed-axis values (replica ids); each is folded into the derived seed.
  std::vector<std::uint64_t> seeds = {0};

  std::uint64_t campaign_seed = 0x5EEDCA3DULL;

  std::size_t size() const;

  // Parses a key=value map (from CLI flags or a spec file). Recognized
  // keys: name, workloads, policies, ecc, read_ratios, seeds,
  // campaign_seed, instructions, warmup, clock_ghz, scrub_every,
  // dirty_check, l2_kb, l2_ways, block_bytes. List values are
  // comma-separated; `policies=all` selects every policy; `scrub_every`
  // accepts a list and populates the scrub axis. Returns nullopt and sets
  // `error` on unknown keys/values.
  static std::optional<CampaignSpec> from_kv(
      const std::map<std::string, std::string>& kv,
      std::string* error = nullptr);
};

// One expanded grid point. Axis indices are retained so downstream
// aggregation can regroup points without re-deriving the mixed-radix
// decomposition.
struct CampaignPoint {
  std::size_t index = 0;  // position in expansion order
  std::size_t workload_i = 0;
  std::size_t policy_i = 0;
  std::size_t ecc_i = 0;
  std::size_t scrub_i = 0;  // 0 when the scrub axis is empty
  std::size_t ratio_i = 0;  // 0 when the ratio axis is empty
  std::size_t seed_i = 0;
  // Stable row key, `<workload>/<policy>/t<ecc>/sc<scrub|->/rr<ratio|->/
  // s<replica>`: a pure function of the point's grid-coordinate *values*,
  // never of its expansion position, so a key survives appending values to
  // any axis and identifies the same row across shards, resumed runs, and
  // spec revisions. `-` marks an axis left at its base value.
  std::string key;
  // Trace identity, `<workload>/rr<ratio|->/s<replica>`: the key restricted
  // to the *environment* coordinates — exactly the inputs of the seed
  // derivation, with the design axes (policy, ecc, scrub) dropped. Two
  // points share a trace_key iff they replay the byte-identical op stream,
  // which is what the campaign trace cache and the grouped runner schedule
  // key on.
  std::string trace_key;
  core::ExperimentConfig config;
};

// Refuses what expand() refuses, without building a point: throws
// std::invalid_argument on an invalid spec (empty mandatory axis, unknown
// workload name, duplicate values on an axis -- row keys are
// value-derived, so axis values must be distinct). A spec that passes
// expands to exactly spec.size() points.
void validate(const CampaignSpec& spec);

// Expands the grid (after validate(), whose exceptions it lets through).
std::vector<CampaignPoint> expand(const CampaignSpec& spec);

// The shard, of `shard_count`, that the grid point at `index` belongs to:
// index % shard_count. Striping by index balances expensive workloads
// (contiguous in expansion order) across shards. The one membership rule:
// shard(), the sharded expand() and the dispatcher's shard bookkeeping all
// ask it, so a different split changes this function alone (and
// shard_size(), its closed-form count).
std::size_t shard_of(std::size_t index, std::size_t shard_count);

// Expands only the points of shard `shard_index` of `shard_count`:
// exactly shard(expand(spec), shard_index, shard_count), without building
// the other shards' points. Throws what expand() and shard() throw.
std::vector<CampaignPoint> expand(const CampaignSpec& spec,
                                  std::size_t shard_index,
                                  std::size_t shard_count);

// The points of shard `shard_index` of `shard_count` (see shard_of),
// expansion order preserved (original indices retained). The shards of a
// spec partition its expansion exactly. Throws std::invalid_argument when
// shard_count == 0 or shard_index >= shard_count.
std::vector<CampaignPoint> shard(const std::vector<CampaignPoint>& points,
                                 std::size_t shard_index,
                                 std::size_t shard_count);

// |shard(points, shard_index, shard_count)| for a grid of `n_points`,
// without materializing anything: the count of indices in [0, n_points)
// that shard_of places in shard `shard_index`. Same argument contract as
// shard().
std::size_t shard_size(std::size_t n_points, std::size_t shard_index,
                       std::size_t shard_count);

// The trace-group plan of a point list: the number of distinct trace
// keys (traces to generate) and the estimated arena bytes of the largest
// one. Shared by the reap_campaign and reap_dispatch --dry-run reports so
// the two plans cannot drift.
struct TracePlan {
  std::size_t groups = 0;
  std::size_t largest_bytes = 0;
};
TracePlan trace_plan(const std::vector<CampaignPoint>& points);
// The same plan for the whole grid of `spec`, in closed form: equal to
// trace_plan(expand(spec)) without building a point. Throws what
// validate() throws.
TracePlan trace_plan(const CampaignSpec& spec);

// Deterministic serialization of every field that affects expansion or
// experiment outcomes (axes, base-config overrides, campaign seed). Two
// specs with equal canonical strings expand to identical configs.
std::string canonical_string(const CampaignSpec& spec);

// fnv1a64 of canonical_string: the fingerprint a journal records so
// --resume can refuse to continue a different campaign.
std::uint64_t spec_hash(const CampaignSpec& spec);

// Parses a spec file: one `key = value` per line, '#' comments, blank
// lines ignored. Returns the raw map; feed it to CampaignSpec::from_kv.
std::optional<std::map<std::string, std::string>> parse_spec_file(
    const std::string& path, std::string* error = nullptr);

// The spec keys a campaign CLI accepts as --key=value flags: exactly the
// set CampaignSpec::from_kv parses. Shared by reap_campaign and
// reap_dispatch so their spec-flag vocabularies cannot drift.
const std::vector<std::string>& spec_cli_keys();

// The campaign spec of a CLI invocation: `kv` is the fully resolved
// key/value map -- the --spec=FILE contents first (when the flag is
// present), then any spec-key flags override the file's values -- and
// `spec` is what CampaignSpec::from_kv parses from it. Shared by every
// CLI that takes a spec. `kv` is empty (and `spec` the default) when the
// invocation gives neither; nullopt (with `error` set) on an unreadable or
// malformed spec file, or a spec from_kv refuses.
struct CliSpec {
  std::map<std::string, std::string> kv;
  CampaignSpec spec;
};
std::optional<CliSpec> spec_from_cli(const common::CliArgs& args,
                                     std::string* error = nullptr);

}  // namespace reap::campaign
