// Trace tooling: generate a synthetic trace to a file, read it back, and
// replay it through the hierarchy -- the workflow for users who want to
// bring their own (e.g. gem5-captured) traces instead of the built-in
// generators. `text` writes one op per line; `reaptrace` writes a checked
// .reaptrace store file (versioned header, CRC32C over header and body)
// and replays it from its read-only mapping.
//
//   ./trace_tools [--workload=gcc] [--ops=200000] [--file=PATH]
//                 [--format=text|reaptrace]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "reap/common/cli.hpp"
#include "reap/core/policy_impl.hpp"
#include "reap/reliability/binomial.hpp"
#include "reap/reliability/ledger.hpp"
#include "reap/sim/cpu.hpp"
#include "reap/trace/spec2006.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/trace_io.hpp"
#include "reap/trace/trace_store.hpp"

using namespace reap;

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  const std::string name = args.get_string("workload", "gcc");
  const std::uint64_t ops = args.get_u64("ops", 200'000);
  const std::string format = args.get_string("format", "reaptrace");
  const bool text = format == "text";
  if (!text && format != "reaptrace") {
    std::fprintf(stderr, "unknown --format '%s' (text or reaptrace)\n",
                 format.c_str());
    return 1;
  }
  const std::string path = args.get_string(
      "file", text ? "/tmp/reap_example.trace" : "/tmp/reap_example.reaptrace");

  const auto profile = trace::spec2006_profile(name);
  if (!profile) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 1;
  }

  // 1. Generate and persist a trace.
  trace::WorkloadTraceSource gen(*profile);
  std::string error;
  bool ok = false;
  if (text) {
    ok = trace::write_text_trace(path, gen, ops);
  } else {
    std::vector<std::uint64_t> packed;
    std::uint64_t fetches = 0;
    trace::MemOp op;
    while (packed.size() < ops && gen.next(op)) {
      packed.push_back(trace::MaterializedTrace::pack(op));
      fetches += op.type == trace::OpType::inst_fetch;
    }
    // A replay stops on the fetch that begins the instruction after its
    // budget, so the file covers one instruction less than it fetches.
    ok = trace::write_trace_file(path, packed, fetches > 0 ? fetches - 1 : 0,
                                 name, {}, &error);
  }
  if (!ok) {
    std::fprintf(stderr, "failed to write %s\n",
                 error.empty() ? path.c_str() : error.c_str());
    return 1;
  }
  std::printf("wrote %llu ops of '%s' to %s (%s format)\n",
              static_cast<unsigned long long>(ops), name.c_str(), path.c_str(),
              format.c_str());

  // 2. Read it back and replay it through the Table I hierarchy with the
  //    conventional policy attached, collecting concealed-read stats.
  //    A store file is fully verified (both CRCs) when it is opened.
  std::unique_ptr<trace::TraceSource> reader;
  trace::MaterializedTrace stored;
  if (text) {
    reader = std::make_unique<trace::TextTraceReader>(path);
  } else {
    const auto mapped = trace::MappedTraceFile::open(path, &error);
    if (!mapped) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    stored = mapped->borrow(mapped);
    reader = std::make_unique<trace::ReplayTraceSource>(stored);
  }

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
