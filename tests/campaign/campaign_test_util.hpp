// Shared scaffolding for the campaign test suites: a cheap deterministic
// stand-in for run_experiment, the 24-point acceptance grid, and file
// helpers. One definition so the fake result model cannot silently
// diverge between suites.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "reap/campaign/dispatch.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/core/experiment.hpp"

namespace reap::campaign::testutil {

// Cheap stand-in for run_experiment: a pure function of the config that
// still exercises every field the sinks/aggregates read.
inline core::ExperimentResult fake_run(const core::ExperimentConfig& cfg) {
  core::ExperimentResult r;
  r.workload = cfg.workload.name;
  r.policy = cfg.policy;
  r.instructions = cfg.instructions;
  r.cycles = cfg.seed % 100000 + cfg.ecc_t;
  r.ipc = 1.0 + double(cfg.seed % 7) / 10.0;
  r.sim_seconds = 0.001 * double(cfg.seed % 13 + 1);
  r.mttf.failure_prob_sum = 1e-9 * double(cfg.seed % 97 + 1);
  r.mttf.sim_seconds = r.sim_seconds;
  r.mttf.failure_rate_per_s = r.mttf.failure_prob_sum / r.sim_seconds;
  r.mttf.mttf_seconds = 1.0 / r.mttf.failure_rate_per_s;
  r.energy.data_read_j = 1e-6 * double(cfg.seed % 11 + 1);
  r.energy.ecc_decode_j = 1e-7 * double(cfg.ecc_t);
  r.p_rd = 1e-8;
  return r;
}

// The acceptance-criteria grid: 2 workloads x 3 policies x 2 ecc x 2
// seeds = 24 points.
inline CampaignSpec grid_24() {
  CampaignSpec spec;
  spec.workloads = {"mcf", "h264ref"};
  spec.policies = {core::PolicyKind::conventional_parallel,
                   core::PolicyKind::reap,
                   core::PolicyKind::serial_tag_then_data};
  spec.ecc_ts = {1, 2};
  spec.seeds = {0, 1};
  return spec;
}

inline std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

inline std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// The recorded dispatcher events of one kind, in the order reported.
inline std::vector<DispatchEvent> events_of(
    const std::vector<DispatchEvent>& events, DispatchEvent::Kind kind) {
  std::vector<DispatchEvent> out;
  for (const auto& e : events)
    if (e.kind == kind) out.push_back(e);
  return out;
}

}  // namespace reap::campaign::testutil
