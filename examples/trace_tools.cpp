// Trace tooling: generate a synthetic trace to a file, read it back, and
// replay it through the hierarchy -- the workflow for users who want to
// bring their own (e.g. gem5-captured) traces instead of the built-in
// generators.
//
//   ./trace_tools [--workload=gcc] [--ops=200000] [--file=/tmp/reap.trace]
//                 [--format=text|binary]
#include <cstdio>
#include <memory>

#include "reap/common/cli.hpp"
#include "reap/core/policy_impl.hpp"
#include "reap/reliability/binomial.hpp"
#include "reap/reliability/ledger.hpp"
#include "reap/sim/cpu.hpp"
#include "reap/trace/spec2006.hpp"
#include "reap/trace/trace_io.hpp"

using namespace reap;

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  const std::string name = args.get_string("workload", "gcc");
  const std::uint64_t ops = args.get_u64("ops", 200'000);
  const std::string path = args.get_string("file", "/tmp/reap_example.trace");
  const std::string format = args.get_string("format", "binary");

  const auto profile = trace::spec2006_profile(name);
  if (!profile) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 1;
  }

  // 1. Generate and persist a trace.
  trace::WorkloadTraceSource gen(*profile);
  const bool ok = format == "text" ? trace::write_text_trace(path, gen, ops)
                                   : trace::write_binary_trace(path, gen, ops);
  if (!ok) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %llu ops of '%s' to %s (%s format)\n",
              static_cast<unsigned long long>(ops), name.c_str(), path.c_str(),
              format.c_str());

  // 2. Read it back and replay it through the Table I hierarchy with the
  //    conventional policy attached, collecting concealed-read stats.
  std::unique_ptr<trace::TraceSource> reader;
  if (format == "text")
    reader = std::make_unique<trace::TextTraceReader>(path);
  else
    reader = std::make_unique<trace::BinaryTraceReader>(path);

  reliability::UncorrectableModel model(1e-8, 1, 512);
  reliability::FailureLedger ledger;
  core::PolicyContext ctx;
  ctx.model = &model;
  ctx.ledger = &ledger;
  ctx.ways = 8;
  core::ConventionalPolicyImpl policy(ctx);

  sim::MemoryHierarchy hier(sim::HierarchyConfig{});
  sim::TraceCpu cpu(*reader, hier);
  cpu.run(ops, policy);  // replays until the trace ends

  const auto s = hier.stats();
  std::printf(
      "\nreplay: %llu instructions, %llu cycles (IPC %.3f)\n"
      "L1D: %.1f%% read hit rate | L2: %.1f%% read hit rate, %llu lookups\n"
      "concealed reads: max %llu, failure-prob sum %.3e over %llu checks\n",
      static_cast<unsigned long long>(cpu.instructions()),
      static_cast<unsigned long long>(cpu.cycles()), cpu.ipc(),
      100.0 * s.l1d.read_hit_rate(), 100.0 * s.l2.read_hit_rate(),
      static_cast<unsigned long long>(s.l2.read_lookups),
      static_cast<unsigned long long>(ledger.max_concealed()),
      ledger.total_failure_prob(),
      static_cast<unsigned long long>(ledger.checks()));

  std::puts("\nconcealed-read histogram (counts, failure weight):");
  std::fputs(ledger.histogram().render("count", "failure").c_str(), stdout);
  return 0;
}
