// Seed derivation must be stable across releases: emitted rows record the
// derived seeds, and re-running an old row must reproduce it bit-for-bit.
// The golden values below pin the exact splitmix64 construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "reap/campaign/seed.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/core/read_path.hpp"

namespace reap::campaign {
namespace {

TEST(SeedDerivation, Splitmix64GoldenValues) {
  // Reference vector from the splitmix64 description (state 0 -> first
  // output), plus pins for our derive construction.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(derive_seed(0x5EEDCA3DULL, 0, 0), 0x2d8096a54dcd5dd6ULL);
  EXPECT_EQ(derive_seed(0x5EEDCA3DULL, 1, 0), 0xb2393a93a02be4e9ULL);
  EXPECT_EQ(derive_seed(0x5EEDCA3DULL, 0, 1), 0x0d872442ae67c46bULL);
  EXPECT_EQ(derive_seed(42, 7, 3), 0x0a4886199ce2300dULL);
  EXPECT_EQ(derive_companion_seed(derive_seed(42, 7, 3)),
            0xd78ab3c06c0719c0ULL);
}

TEST(SeedDerivation, IsAPureFunction) {
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
  EXPECT_EQ(derive_companion_seed(99), derive_companion_seed(99));
}

TEST(SeedDerivation, DistinctAcrossGridIndicesAndReplicas) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t index = 0; index < 256; ++index)
    for (std::uint64_t replica = 0; replica < 4; ++replica)
      seen.insert(derive_seed(0xC0FFEE, index, replica));
  EXPECT_EQ(seen.size(), 256u * 4u);
}

TEST(SeedDerivation, CampaignSeedSelectsDifferentStreams) {
  for (std::uint64_t index = 0; index < 64; ++index)
    EXPECT_NE(derive_seed(1, index, 0), derive_seed(2, index, 0));
}

TEST(SeedDerivation, CompanionSeedDecorrelates) {
  for (std::uint64_t index = 0; index < 64; ++index) {
    const auto s = derive_seed(7, index, 0);
    EXPECT_NE(derive_companion_seed(s), s);
  }
}

// The trace cache keys sharing on CampaignPoint::trace_key, trusting that
// distinct trace keys imply distinct trace *seeds* — a companion-seed
// collision across workloads would make two different workloads replay
// correlated streams and would be invisible in any per-point check. That
// was only implicitly impossible; pin it against every checked-in spec so
// a seed-rule change that introduces a collision fails loudly here, and a
// new spec is parsed, validated and expanded without editing this test.
// Every checked-in specs/*.spec, in name order.
std::vector<std::filesystem::path> checked_in_specs() {
  std::vector<std::filesystem::path> specs;
  for (const auto& entry :
       std::filesystem::directory_iterator(REAP_SOURCE_DIR "/specs"))
    if (entry.path().extension() == ".spec") specs.push_back(entry.path());
  std::sort(specs.begin(), specs.end());
  return specs;
}

std::optional<CampaignSpec> load_spec(const std::filesystem::path& path) {
  std::string error;
  const auto kv = parse_spec_file(path.string(), &error);
  EXPECT_TRUE(kv.has_value()) << error;
  if (!kv) return std::nullopt;
  auto spec = CampaignSpec::from_kv(*kv, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  return spec;
}

TEST(SeedDerivation, FigureSpecTraceKeysMapToDistinctTraceSeeds) {
  const auto specs = checked_in_specs();
  ASSERT_GE(specs.size(), 3u);
  for (const auto& path : specs) {
    SCOPED_TRACE(path.filename().string());
    const auto spec = load_spec(path);
    ASSERT_TRUE(spec.has_value());
    const auto points = expand(*spec);
    ASSERT_FALSE(points.empty());

    // trace_key -> (workload seed, hierarchy seed) must be injective both
    // ways: equal keys share seeds (the paired-comparison contract),
    // distinct keys never collide on either seed.
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_key;
    std::map<std::uint64_t, std::string> by_trace_seed;
    for (const auto& pt : points) {
      const auto seeds =
          std::make_pair(pt.config.workload.seed, pt.config.seed);
      const auto [it, fresh] = by_key.emplace(pt.trace_key, seeds);
      if (!fresh) {
        EXPECT_EQ(it->second, seeds) << pt.key;
      }
      const auto [ts, ts_fresh] =
          by_trace_seed.emplace(pt.config.workload.seed, pt.trace_key);
      if (!ts_fresh) {
        EXPECT_EQ(ts->second, pt.trace_key)
            << "companion-seed collision: " << pt.key << " vs "
            << ts->second;
      }
    }
    // One trace group per environment coordinate: workload x operating
    // point x seed replica (design axes share a group).
    EXPECT_EQ(by_key.size(),
              spec->workloads.size() *
                  std::max<std::size_t>(1, spec->read_ratios.size()) *
                  spec->seeds.size());
  }
}

// reap_dispatch --dry-run states the trace-group plan in closed form,
// without expanding the grid. It must be the plan of the expansion for
// every checked-in spec, and for a fleet-shaped grid with every axis in
// use: all policies, two ECC strengths, a scrub axis, read ratios and
// several seeds.
TEST(TracePlan, ClosedFormEqualsThePlanOfTheExpansion) {
  std::vector<std::pair<std::string, CampaignSpec>> specs;
  for (const auto& path : checked_in_specs()) {
    auto spec = load_spec(path);
    ASSERT_TRUE(spec.has_value()) << path;
    specs.emplace_back(path.filename().string(), std::move(*spec));
  }
  CampaignSpec fleet;
  fleet.workloads = {"mcf", "h264ref", "lbm", "namd", "bwaves"};
  fleet.policies = core::all_policies();
  fleet.ecc_ts = {1, 2};
  fleet.scrub_everys = {4, 16};
  fleet.read_ratios = {0.55, 0.693, 0.8};
  fleet.seeds = {0, 1, 2, 7};
  fleet.base.instructions = 1000;
  fleet.base.warmup_instructions = 100;
  specs.emplace_back("fleet", fleet);
  fleet.read_ratios.clear();
  fleet.base.instructions = 3'000'000;
  specs.emplace_back("fleet without read ratios", fleet);

  for (const auto& [name, spec] : specs) {
    SCOPED_TRACE(name);
    const auto closed = trace_plan(spec);
    const auto expanded = trace_plan(expand(spec));
    EXPECT_GT(closed.groups, 0u);
    EXPECT_EQ(closed.groups, expanded.groups);
    EXPECT_EQ(closed.largest_bytes, expanded.largest_bytes);
  }

  // It refuses what expand() refuses.
  fleet.workloads.push_back("no-such-workload");
  EXPECT_THROW(trace_plan(fleet), std::invalid_argument);
  fleet.workloads = {"mcf", "mcf"};
  EXPECT_THROW(trace_plan(fleet), std::invalid_argument);
}

}  // namespace
}  // namespace reap::campaign
