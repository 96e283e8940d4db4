// Grid expansion: count, ordering, axis assignment, spec parsing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "reap/campaign/seed.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/common/strings.hpp"

namespace reap::campaign {
namespace {

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.workloads = {"mcf", "h264ref"};
  spec.policies = {core::PolicyKind::conventional_parallel,
                   core::PolicyKind::reap,
                   core::PolicyKind::serial_tag_then_data};
  spec.ecc_ts = {1, 2};
  spec.seeds = {0, 1};
  return spec;
}

TEST(CampaignGrid, SizeIsTheAxisProduct) {
  const auto spec = small_spec();
  EXPECT_EQ(spec.size(), 2u * 3u * 2u * 2u);
  const auto points = expand(spec);
  EXPECT_EQ(points.size(), spec.size());
}

TEST(CampaignGrid, RowMajorOrderSeedsFastest) {
  const auto spec = small_spec();
  const auto points = expand(spec);
  // index 0: first value on every axis.
  EXPECT_EQ(points[0].config.workload.name, "mcf");
  EXPECT_EQ(points[0].config.policy, core::PolicyKind::conventional_parallel);
  EXPECT_EQ(points[0].config.ecc_t, 1u);
  // Seeds are the fastest axis.
  EXPECT_EQ(points[1].seed_i, 1u);
  EXPECT_EQ(points[1].ecc_i, 0u);
  // Then ecc.
  EXPECT_EQ(points[2].ecc_i, 1u);
  EXPECT_EQ(points[2].config.ecc_t, 2u);
  // Then policy: one policy block spans ecc * seeds = 4 points.
  EXPECT_EQ(points[4].config.policy, core::PolicyKind::reap);
  // Then workload: one workload block spans 3 * 4 = 12 points.
  EXPECT_EQ(points[12].config.workload.name, "h264ref");
  // Indices are dense and sequential.
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].index, i);
}

TEST(CampaignGrid, DerivedSeedsMatchTheSeedModule) {
  const auto spec = small_spec();
  const auto points = expand(spec);
  for (const auto& pt : points) {
    // Environment index: (workload, ratio, seed) -- ratio axis is empty
    // here, so it collapses to workload-major, seed-minor.
    const std::uint64_t env_index =
        pt.workload_i * spec.seeds.size() + pt.seed_i;
    const auto expected =
        derive_seed(spec.campaign_seed, env_index, spec.seeds[pt.seed_i]);
    EXPECT_EQ(pt.config.seed, expected);
    EXPECT_EQ(pt.config.workload.seed, derive_companion_seed(expected));
  }
}

TEST(CampaignGrid, PairedPointsShareSeedsAcrossDesignAxes) {
  // Points that differ only in policy or ecc_t must replay the exact same
  // trace: same hierarchy seed, same workload seed.
  const auto points = expand(small_spec());
  for (const auto& a : points)
    for (const auto& b : points)
      if (a.workload_i == b.workload_i && a.ratio_i == b.ratio_i &&
          a.seed_i == b.seed_i) {
        EXPECT_EQ(a.config.seed, b.config.seed);
        EXPECT_EQ(a.config.workload.seed, b.config.workload.seed);
      }
}

TEST(CampaignGrid, TraceKeyIsTheEnvironmentCoordinateSubset) {
  CampaignSpec spec = small_spec();
  spec.read_ratios = {0.55, 0.8};
  spec.scrub_everys = {16, 64};
  const auto points = expand(spec);
  for (const auto& pt : points) {
    // trace_key = row key minus the design axes: workload + rr + s fields.
    const auto expected = spec.workloads[pt.workload_i] + "/rr" +
                          common::fmt_double(spec.read_ratios[pt.ratio_i]) +
                          "/s" + std::to_string(spec.seeds[pt.seed_i]);
    EXPECT_EQ(pt.trace_key, expected);
    // And the invariant it names: equal trace_key <=> identical trace
    // seeds (same generator, same stream).
    for (const auto& other : points) {
      if (other.trace_key == pt.trace_key) {
        EXPECT_EQ(other.config.workload.seed, pt.config.workload.seed);
        EXPECT_EQ(other.config.seed, pt.config.seed);
      } else {
        EXPECT_NE(other.config.workload.seed, pt.config.workload.seed);
      }
    }
  }
}

TEST(CampaignGrid, DistinctEnvironmentsGetDistinctSeeds) {
  const auto points = expand(small_spec());
  for (const auto& a : points)
    for (const auto& b : points)
      if (a.workload_i != b.workload_i || a.seed_i != b.seed_i) {
        EXPECT_NE(a.config.seed, b.config.seed);
      }
}

TEST(CampaignGrid, ReadRatioAxisOverridesMtj) {
  auto spec = small_spec();
  spec.read_ratios = {0.55, 0.8};
  const auto points = expand(spec);
  EXPECT_EQ(points.size(), 2u * 3u * 2u * 2u * 2u);
  for (const auto& pt : points) {
    const double ratio = pt.config.mtj.read_current.value /
                         pt.config.mtj.critical_current.value;
    EXPECT_NEAR(ratio, spec.read_ratios[pt.ratio_i], 1e-12);
  }
}

TEST(CampaignGrid, ScrubAxisOverridesPeriodAndKeepsSeeds) {
  auto spec = small_spec();
  spec.policies = {core::PolicyKind::scrub_piggyback};
  spec.scrub_everys = {256, 16, 1};
  const auto points = expand(spec);
  EXPECT_EQ(points.size(), 2u * 1u * 2u * 3u * 2u);
  for (const auto& pt : points) {
    EXPECT_EQ(pt.config.scrub_every, spec.scrub_everys[pt.scrub_i]);
  }
  // Design axis: the scrub period must not perturb the derived seeds, so
  // sweep points replay the trace of their reference campaign.
  for (const auto& a : points)
    for (const auto& b : points)
      if (a.workload_i == b.workload_i && a.seed_i == b.seed_i) {
        EXPECT_EQ(a.config.seed, b.config.seed);
        EXPECT_EQ(a.config.workload.seed, b.config.workload.seed);
      }
}

TEST(CampaignGrid, EmptyScrubAxisKeepsBasePeriod) {
  auto spec = small_spec();
  spec.base.scrub_every = 99;
  const auto points = expand(spec);
  for (const auto& pt : points) {
    EXPECT_EQ(pt.config.scrub_every, 99u);
    EXPECT_EQ(pt.scrub_i, 0u);
  }
}

TEST(CampaignGrid, ExpansionIsDeterministic) {
  const auto a = expand(small_spec());
  const auto b = expand(small_spec());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].config.seed, b[i].config.seed);
    EXPECT_EQ(a[i].config.workload.name, b[i].config.workload.name);
  }
}

TEST(CampaignGrid, RejectsBadSpecs) {
  CampaignSpec spec;
  EXPECT_THROW(expand(spec), std::invalid_argument);  // no axes at all
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec = small_spec();
  spec.workloads = {"not_a_workload"};
  EXPECT_THROW(expand(spec), std::invalid_argument);
  EXPECT_THROW(validate(spec), std::invalid_argument);
  EXPECT_NO_THROW(validate(small_spec()));
}

// validate() is expand()'s check without the expansion: the dispatcher
// refuses a bad spec with it before launching anything, so both must
// refuse the same specs with the same message.
TEST(CampaignGrid, ValidateRefusesWhatExpandRefusesInItsWords) {
  std::vector<CampaignSpec> bad(8, small_spec());
  bad[0].workloads.clear();
  bad[1].policies.clear();
  bad[2].ecc_ts.clear();
  bad[3].seeds.clear();
  bad[4].workloads = {"mcf", "not_a_workload"};
  bad[5].scrub_everys = {4, 4};
  bad[6].read_ratios = {0.55, 0.55};
  bad[7].ecc_ts = {1, 1};
  for (const auto& spec : bad) {
    std::string expand_error, validate_error;
    try {
      expand(spec);
    } catch (const std::invalid_argument& e) {
      expand_error = e.what();
    }
    try {
      validate(spec);
    } catch (const std::invalid_argument& e) {
      validate_error = e.what();
    }
    EXPECT_FALSE(expand_error.empty());
    EXPECT_EQ(validate_error, expand_error);
  }
}

TEST(CampaignGrid, RejectsDuplicateAxisValues) {
  // Row keys are value-derived: duplicate axis values would alias two
  // grid points onto one key (and the journal would drop one row).
  auto spec = small_spec();
  spec.seeds = {0, 0};
  EXPECT_THROW(expand(spec), std::invalid_argument);
  spec = small_spec();
  spec.workloads = {"mcf", "mcf"};
  EXPECT_THROW(expand(spec), std::invalid_argument);
  spec = small_spec();
  spec.policies.push_back(spec.policies.front());
  EXPECT_THROW(expand(spec), std::invalid_argument);
  spec = small_spec();
  spec.read_ratios = {0.55, 0.55};
  EXPECT_THROW(expand(spec), std::invalid_argument);
}

TEST(CampaignSpecKv, ParsesListsAndScalars) {
  std::map<std::string, std::string> kv{
      {"workloads", "mcf,h264ref"},
      {"policies", "conventional,reap"},
      {"ecc", "1,2"},
      {"seeds", "0,1,2"},
      {"read_ratios", "0.55,0.8"},
      {"scrub_every", "64,16"},
      {"instructions", "1000"},
      {"campaign_seed", "99"},
  };
  std::string error;
  const auto spec = CampaignSpec::from_kv(kv, &error);
  ASSERT_TRUE(spec) << error;
  EXPECT_EQ(spec->workloads.size(), 2u);
  EXPECT_EQ(spec->policies.size(), 2u);
  EXPECT_EQ(spec->ecc_ts, (std::vector<unsigned>{1, 2}));
  EXPECT_EQ(spec->seeds.size(), 3u);
  EXPECT_EQ(spec->read_ratios.size(), 2u);
  EXPECT_EQ(spec->scrub_everys, (std::vector<std::uint64_t>{64, 16}));
  EXPECT_EQ(spec->base.instructions, 1000u);
  EXPECT_EQ(spec->campaign_seed, 99u);
  EXPECT_EQ(spec->size(), 2u * 2u * 2u * 2u * 2u * 3u);
}

TEST(CampaignSpecKv, RejectsGarbageNumericValues) {
  std::string error;
  const std::map<std::string, std::string> base{{"workloads", "mcf"},
                                                {"policies", "reap"}};
  auto with = [&](const std::string& k, const std::string& v) {
    auto kv = base;
    kv[k] = v;
    return CampaignSpec::from_kv(kv, &error);
  };
  // strtoull would silently stop at 'e' and run 1-instruction experiments.
  EXPECT_FALSE(with("instructions", "1e6"));
  EXPECT_NE(error.find("instructions"), std::string::npos);
  EXPECT_FALSE(with("ecc", "two"));
  EXPECT_FALSE(with("ecc", ""));  // empty list must not clear the axis
  EXPECT_FALSE(with("seeds", "1,x"));
  EXPECT_FALSE(with("read_ratios", "0.5,oops"));
  EXPECT_FALSE(with("campaign_seed", "0x12"));
  EXPECT_FALSE(with("clock_ghz", "fast"));
  // Sanity: the strict parser still accepts well-formed values.
  EXPECT_TRUE(with("instructions", "1000000"));
  EXPECT_TRUE(with("read_ratios", "0.55,0.8"));
}

TEST(CampaignSpecKv, RejectsUnknownKeysAndPolicies) {
  std::string error;
  EXPECT_FALSE(CampaignSpec::from_kv({{"wat", "1"}}, &error));
  EXPECT_NE(error.find("unknown spec key"), std::string::npos);
  EXPECT_FALSE(CampaignSpec::from_kv({{"workloads", "mcf"},
                                      {"policies", "warp_drive"}},
                                     &error));
  EXPECT_FALSE(CampaignSpec::from_kv({{"policies", "reap"}}, &error))
      << "workloads are mandatory";
}

TEST(CampaignSpecFile, ParsesCommentsAndWhitespace) {
  const std::string path = ::testing::TempDir() + "/reap_campaign_test.spec";
  {
    std::ofstream out(path);
    out << "# a campaign\n"
        << "workloads = mcf,h264ref   # two workloads\n"
        << "\n"
        << "policies=conventional,reap\n"
        << "seeds = 0,1\n";
  }
  std::string error;
  const auto kv = parse_spec_file(path, &error);
  ASSERT_TRUE(kv) << error;
  const auto spec = CampaignSpec::from_kv(*kv, &error);
  ASSERT_TRUE(spec) << error;
  EXPECT_EQ(spec->size(), 2u * 2u * 1u * 1u * 2u);
  std::remove(path.c_str());
}

TEST(CampaignSpecFile, ReportsBadLinesWithLineNumbers) {
  const std::string path = ::testing::TempDir() + "/reap_campaign_bad.spec";
  {
    std::ofstream out(path);
    out << "workloads = mcf\n"
        << "this line has no equals\n";
  }
  std::string error;
  EXPECT_FALSE(parse_spec_file(path, &error));
  EXPECT_NE(error.find(":2:"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace reap::campaign
