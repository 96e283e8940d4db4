// End-to-end experiment throughput (google-benchmark): instructions/sec of
// run_experiment per read-path policy on the paper's default Table I
// configuration:
//
//   E2E/simd/<policy>     -- the production engine: batched trace pulls,
//                            policy statically dispatched and inlined into
//                            the cache access path, vectorized drive loop
//                            (batch pre-decode + prefetch + SIMD set
//                            scans) (run_experiment)
//   E2E/replay/<policy>   -- the same engine fed from a materialized
//                            trace (run_experiment_replay over a
//                            pre-built arena): the steady-state cost of a
//                            campaign grid point whose trace-cache lookup
//                            hits, i.e. every point of a paired group
//                            after the first. replay/simd isolates the
//                            RNG generation share of the hot path
//
// The replay/simd ratio is the trace-replay win inside one binary
// (bench_diff.py --gate holds its floor in CI); comparing BENCH_e2e.json
// files across commits (tools/bench_diff.py) tracks the full perf
// trajectory. items_per_second is simulated instructions per wall second.
//
// Emit the JSON artifact with:
//   bench_e2e --benchmark_out=BENCH_e2e.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include "reap/core/experiment.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/spec2006.hpp"

using namespace reap;

namespace {

// Default Table I hierarchy/device config; perlbench is the bundled
// workload with the paper's qualitative "average case" mix (hot-set reuse
// + streams + pointer-ish noise).
core::ExperimentConfig bench_cfg(core::PolicyKind policy) {
  core::ExperimentConfig cfg;
  cfg.workload = *trace::spec2006_profile("perlbench");
  cfg.policy = policy;
  cfg.instructions = 400'000;
  cfg.warmup_instructions = 50'000;
  return cfg;
}

void run_e2e(benchmark::State& state, core::PolicyKind policy) {
  const auto cfg = bench_cfg(policy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_experiment(cfg));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cfg.instructions));
}

// Replay steady state: the arena is materialized once outside the timed
// region (amortized to ~zero across a paired group in a real campaign)
// and every iteration replays it, exactly as a campaign point with a
// trace-cache hit does.
void run_e2e_replay(benchmark::State& state, core::PolicyKind policy) {
  const auto cfg = bench_cfg(policy);
  trace::WorkloadTraceSource gen(cfg.workload);
  const auto trace = trace::MaterializedTrace::materialize(
      gen, cfg.warmup_instructions + cfg.instructions);
  for (auto _ : state) {
    trace::ReplayTraceSource source(trace);
    benchmark::DoNotOptimize(core::run_experiment_replay(cfg, source));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cfg.instructions));
}

void register_all() {
  for (const core::PolicyKind policy : core::all_policies()) {
    benchmark::RegisterBenchmark(
        ("E2E/simd/" + core::to_string(policy)).c_str(),
        [policy](benchmark::State& s) { run_e2e(s, policy); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("E2E/replay/" + core::to_string(policy)).c_str(),
        [policy](benchmark::State& s) { run_e2e_replay(s, policy); })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
