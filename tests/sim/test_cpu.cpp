#include "reap/sim/cpu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "reap/trace/replay.hpp"
#include "reap/trace/spec2006.hpp"
#include "reap/trace/trace_io.hpp"
#include "reap/trace/workload.hpp"

namespace reap::sim {
namespace {

HierarchyConfig tiny_cfg() {
  HierarchyConfig cfg;
  cfg.l1i = {.name = "L1I", .capacity_bytes = 256, .ways = 2, .block_bytes = 64};
  cfg.l1d = {.name = "L1D", .capacity_bytes = 256, .ways = 2, .block_bytes = 64};
  cfg.l2 = {.name = "L2", .capacity_bytes = 512, .ways = 2, .block_bytes = 64};
  cfg.l2_hit_cycles = 10;
  cfg.mem_cycles = 100;
  return cfg;
}

TEST(TraceCpu, CountsInstructionsNotDataOps) {
  trace::VectorTraceSource src({
      {trace::OpType::inst_fetch, 0x400000},
      {trace::OpType::load, 0x1000},
      {trace::OpType::inst_fetch, 0x400004},
      {trace::OpType::store, 0x2000},
      {trace::OpType::inst_fetch, 0x400008},
  });
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem);
  NullHooks hooks;
  EXPECT_EQ(cpu.run(100, hooks), 3u);
  EXPECT_EQ(cpu.instructions(), 3u);
}

TEST(TraceCpu, StopsAtInstructionBudget) {
  std::vector<trace::MemOp> ops;
  for (int i = 0; i < 100; ++i)
    ops.push_back({trace::OpType::inst_fetch, 0x400000u + i * 4u});
  trace::VectorTraceSource src(ops);
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem);
  NullHooks hooks;
  EXPECT_EQ(cpu.run(30, hooks), 30u);
  EXPECT_EQ(cpu.run(30, hooks), 30u);
  EXPECT_EQ(cpu.run(100, hooks), 40u);  // trace exhausted
}

TEST(TraceCpu, CyclesIncludeMemoryStalls) {
  trace::VectorTraceSource src({
      {trace::OpType::inst_fetch, 0x400000},
      {trace::OpType::load, 0x1000},
  });
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem);
  NullHooks hooks;
  cpu.run(10, hooks);
  // 1 cycle for the instruction + I-fetch cold miss (100) + load cold miss
  // (100).
  EXPECT_EQ(cpu.cycles(), 201u);
  EXPECT_LT(cpu.ipc(), 1.0);
}

TEST(TraceCpu, PerfectL1GivesIpcNearOne) {
  std::vector<trace::MemOp> ops;
  for (int i = 0; i < 1000; ++i)
    ops.push_back({trace::OpType::inst_fetch, 0x400000});  // same block
  trace::VectorTraceSource src(ops);
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem);
  NullHooks hooks;
  cpu.run(1000, hooks);
  EXPECT_GT(cpu.ipc(), 0.9);
}

TEST(TraceCpu, SecondsUsesClock) {
  trace::VectorTraceSource src({{trace::OpType::inst_fetch, 0x400000}});
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem, /*clock_ghz=*/1.0);
  NullHooks hooks;
  cpu.run(1, hooks);
  // 1 + 100 cycles at 1 GHz = 101 ns.
  EXPECT_NEAR(cpu.seconds(), 101e-9, 1e-12);
}

TEST(TraceCpu, ResetCountersKeepsCacheState) {
  trace::VectorTraceSource src({
      {trace::OpType::inst_fetch, 0x400000},
      {trace::OpType::load, 0x1000},
      {trace::OpType::inst_fetch, 0x400004},
      {trace::OpType::load, 0x1000},
  });
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem);
  NullHooks hooks;
  cpu.run(1, hooks);  // first instruction + cold load
  cpu.reset_counters();
  EXPECT_EQ(cpu.instructions(), 0u);
  cpu.run(1, hooks);  // second instruction: warm load, few cycles
  EXPECT_LT(cpu.cycles(), 10u);
}

// `instructions` instructions of `ops_per_inst` ops each (a fetch, then
// loads and stores), over addresses that miss, hit and write back across
// both L1s and the L2.
std::vector<trace::MemOp> mixed_ops(std::size_t instructions,
                                    unsigned ops_per_inst) {
  std::vector<trace::MemOp> ops;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::size_t i = 0; i < instructions; ++i) {
    ops.push_back({trace::OpType::inst_fetch, 0x400000u + (next() % 512) * 4});
    for (unsigned d = 1; d < ops_per_inst; ++d) {
      const std::uint64_t addr = (next() % 64) * 64;
      if (next() % 3 == 0)
        ops.push_back({trace::OpType::store, addr + 0x8000});
      else
        ops.push_back({trace::OpType::load, addr});
    }
  }
  return ops;
}

void expect_same_stats(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.read_lookups, b.read_lookups);
  EXPECT_EQ(a.read_hits, b.read_hits);
  EXPECT_EQ(a.write_lookups, b.write_lookups);
  EXPECT_EQ(a.write_hits, b.write_hits);
  EXPECT_EQ(a.fills, b.fills);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_evictions, b.dirty_evictions);
}

// Runs `ops` through successive run() calls with `budgets` and through one
// call with their sum: every call returns its budget while the trace
// lasts, and the two end with the same instructions, cycles and stats.
void expect_split_matches_one_run(const std::vector<trace::MemOp>& ops,
                                  const std::vector<std::uint64_t>& budgets) {
  trace::VectorTraceSource src_split(ops), src_one(ops);
  MemoryHierarchy mem_split(tiny_cfg()), mem_one(tiny_cfg());
  TraceCpu split(src_split, mem_split), one(src_one, mem_one);
  NullHooks hooks;
  const auto in_trace = static_cast<std::uint64_t>(
      std::count_if(ops.begin(), ops.end(), [](const trace::MemOp& op) {
        return op.type == trace::OpType::inst_fetch;
      }));
  std::uint64_t total = 0;
  for (const std::uint64_t budget : budgets) {
    const std::uint64_t left = in_trace - split.instructions();
    EXPECT_EQ(split.run(budget, hooks), std::min(budget, left));
    total += budget;
    EXPECT_EQ(split.instructions(), std::min(total, in_trace));
  }
  EXPECT_EQ(one.run(total, hooks), split.instructions());
  EXPECT_EQ(split.cycles(), one.cycles());
  const HierarchyStats a = mem_split.stats(), b = mem_one.stats();
  expect_same_stats(a.l1i, b.l1i);
  expect_same_stats(a.l1d, b.l1d);
  expect_same_stats(a.l2, b.l2);
  EXPECT_EQ(a.mem_reads, b.mem_reads);
  EXPECT_EQ(a.mem_writes, b.mem_writes);
  EXPECT_GT(b.l2.read_hits, 0u);
  EXPECT_GT(b.mem_writes, 0u);
}

// Two-op instructions: 2048 of them fill one kBatchOps batch exactly, so
// the budget ends on the boundary and the next call starts on a fresh
// batch.
TEST(TraceCpu, BudgetEndingOnABatchBoundary) {
  static_assert(TraceCpu::kBatchOps == 4096);
  const auto ops = mixed_ops(3 * 2048 + 10, 2);
  expect_split_matches_one_run(ops, {2048, 2048, 2048, 10});
}

TEST(TraceCpu, BudgetStraddlingBatches) {
  // 3000 three-op instructions span three batches.
  const auto ops = mixed_ops(7'000, 3);
  expect_split_matches_one_run(ops, {3'000, 3'000, 1'000});
}

TEST(TraceCpu, VectorizedLoopHonoursInstructionBudget) {
  // Several calls, from one instruction to several batches, then one past
  // the end of the trace.
  const auto ops = mixed_ops(20'000, 3);
  expect_split_matches_one_run(ops,
                               {1, 1, 999, 4'096, 1'365, 7'000, 20'000});
}

// Serves another source's ops and counts them: what a run pulled.
class CountingSource final : public trace::TraceSource {
 public:
  explicit CountingSource(trace::TraceSource& inner) : inner_(inner) {}

  bool next(trace::MemOp& op) override {
    const bool ok = inner_.next(op);
    served_ += ok ? 1 : 0;
    return ok;
  }
  std::size_t next_batch(std::span<trace::MemOp> out) override {
    const std::size_t n = inner_.next_batch(out);
    served_ += n;
    return n;
  }
  void reset() override {
    inner_.reset();
    served_ = 0;
  }
  std::uint64_t served() const { return served_; }

 private:
  trace::TraceSource& inner_;
  std::uint64_t served_ = 0;
};

trace::WorkloadProfile budget_profile() {
  auto profile = *trace::spec2006_profile("mcf");
  profile.seed = 7;
  return profile;
}

// Ops a core executes for `instructions` instructions of `profile`: every
// op before the next instruction's fetch.
std::uint64_t ops_consumed(const trace::WorkloadProfile& profile,
                           std::uint64_t instructions) {
  trace::WorkloadTraceSource gen(profile);
  std::uint64_t ops = 0, fetches = 0;
  for (trace::MemOp op; gen.next(op); ++ops)
    if (op.type == trace::OpType::inst_fetch && ++fetches > instructions)
      break;
  return ops;
}

// Runs a warmup of `warmup` instructions (counters reset after it, as an
// experiment does) and then `instructions` more over `src`.
struct BudgetRun {
  std::uint64_t executed = 0;
  std::uint64_t cycles = 0;
  HierarchyStats stats;
};

BudgetRun run_budget(trace::TraceSource& src, std::uint64_t warmup,
                     std::uint64_t instructions) {
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem);
  NullHooks hooks;
  if (warmup > 0) {
    EXPECT_EQ(cpu.run(warmup, hooks), warmup);
    cpu.reset_counters();
    mem.reset_stats();
  }
  BudgetRun r;
  r.executed = cpu.run(instructions, hooks);
  r.cycles = cpu.cycles();
  r.stats = mem.stats();
  return r;
}

// A run over the live generator, pulled through a counting wrapper, and
// the same budget replayed from a materialized arena end identical.
void expect_same_run(const BudgetRun& a, const BudgetRun& b) {
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.cycles, b.cycles);
  expect_same_stats(a.stats.l1i, b.stats.l1i);
  expect_same_stats(a.stats.l1d, b.stats.l1d);
  expect_same_stats(a.stats.l2, b.stats.l2);
  EXPECT_EQ(a.stats.mem_reads, b.stats.mem_reads);
  EXPECT_EQ(a.stats.mem_writes, b.stats.mem_writes);
}

BudgetRun replayed_run(const trace::WorkloadProfile& profile,
                       std::uint64_t warmup, std::uint64_t instructions) {
  trace::WorkloadTraceSource gen(profile);
  const auto arena =
      trace::MaterializedTrace::materialize(gen, warmup + instructions);
  trace::ReplayTraceSource replay(arena);
  return run_budget(replay, warmup, instructions);
}

TEST(TraceCpu, OneInstructionPullsOneCappedRefill) {
  const auto profile = budget_profile();
  trace::WorkloadTraceSource gen(profile);
  CountingSource counted(gen);
  const BudgetRun run = run_budget(counted, 0, 1);
  EXPECT_EQ(run.executed, 1u);
  EXPECT_LE(counted.served(), TraceCpu::batch_cap(1));
  EXPECT_LT(TraceCpu::batch_cap(1), TraceCpu::kBatchOps);
  EXPECT_GE(counted.served(), ops_consumed(profile, 1));
  expect_same_run(run, replayed_run(profile, 0, 1));
}

TEST(TraceCpu, WarmupAndRunPullWhatTheyConsumePlusOneRefillSlack) {
  const auto profile = budget_profile();
  trace::WorkloadTraceSource gen(profile);
  CountingSource counted(gen);
  const BudgetRun run = run_budget(counted, 100, 1'000);
  EXPECT_EQ(run.executed, 1'000u);
  // The last refill happens with at most 1,000 instructions left, and what
  // remains after it executes at least one op per instruction.
  const std::uint64_t consumed = ops_consumed(profile, 1'100);
  EXPECT_GE(counted.served(), consumed);
  EXPECT_LE(counted.served(), consumed + TraceCpu::batch_cap(1'000) - 1'000);
  expect_same_run(run, replayed_run(profile, 100, 1'000));
}

}  // namespace
}  // namespace reap::sim
