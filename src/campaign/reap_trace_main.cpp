// reap_trace: the trace-store tool. Materializes a campaign spec's
// synthetic workloads into .reaptrace files (one per distinct trace key),
// imports externally captured text traces, and verifies/dumps store files.
// reap_campaign --trace-dir=DIR replays the files this tool writes;
// see docs/campaign.md ("Trace store") for the format and workflow.
//
// Usage:
//   reap_trace --materialize --spec=specs/fig5.spec --out-dir=traces/
//   reap_trace --import=capture.txt --out=traces/custom.reaptrace
//              --trace-key=custom/rr-/s0
//   reap_trace --verify traces/*.reaptrace
//   reap_trace --dump traces/mcf_rr-_s0.reaptrace --max-ops=100
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "reap/campaign/cli_usage.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/campaign/version.hpp"
#include "reap/common/cli.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/trace_io.hpp"
#include "reap/trace/trace_store.hpp"

using namespace reap;

namespace {

int usage(const char* argv0) {
  std::printf(campaign::kTraceUsage, argv0);
  return 0;
}

double mb(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// --materialize: one store file per distinct trace key of the expanded
// grid. The recorded metadata names the spec and the generator budget, so
// a dumped file is self-describing.
int materialize(const common::CliArgs& args) {
  std::string error;
  const auto cli_spec = campaign::spec_from_cli(args, &error);
  if (!cli_spec) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (cli_spec->kv.empty()) {
    std::fprintf(stderr, "--materialize needs a spec (--spec=FILE and/or "
                         "key=value flags)\n");
    return 1;
  }
  const auto& spec = cli_spec->spec;
  const std::string out_dir = args.get_string("out-dir", "");
  if (out_dir.empty()) {
    std::fprintf(stderr, "--materialize needs --out-dir=DIR\n");
    return 1;
  }
  const bool force = args.has("force");
  common::warn_unused(args);

  std::vector<campaign::CampaignPoint> points;
  try {
    points = campaign::expand(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  std::unordered_set<std::string> seen;
  std::size_t written = 0, skipped = 0;
  for (const auto& pt : points) {
    if (!seen.insert(pt.trace_key).second) continue;
    const auto path =
        (std::filesystem::path(out_dir) /
         trace::trace_store_filename(pt.trace_key)).string();
    if (!force && std::filesystem::exists(path)) {
      std::printf("%s: exists, skipping (--force overwrites)\n",
                  path.c_str());
      ++skipped;
      continue;
    }
    const std::uint64_t budget =
        pt.config.warmup_instructions + pt.config.instructions;
    trace::WorkloadTraceSource gen(pt.config.workload);
    const auto trace = trace::MaterializedTrace::materialize(gen, budget);
    const std::map<std::string, std::string> meta = {
        {"campaign", spec.name},
        {"workload", pt.config.workload.name},
        {"budget", std::to_string(budget)},
    };
    if (!trace::write_trace_file(path, trace, pt.trace_key, meta, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("%s: %zu ops, %" PRIu64 " instructions, %.1f MB\n",
                path.c_str(), trace.size(), trace.instructions(),
                mb(trace.size() * sizeof(std::uint64_t)));
    ++written;
  }
  std::printf("%zu trace file%s written to %s (%zu skipped)\n", written,
              written == 1 ? "" : "s", out_dir.c_str(), skipped);
  return 0;
}

// --import: text trace -> store file. The reader's EOF and parse-error
// cases both end the stream; the importer refuses on error() so a garbage
// tail aborts loudly instead of writing a silently short trace.
int import_text(const common::CliArgs& args) {
  const std::string in = args.get_string("import", "");
  const std::string out = args.get_string("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--import needs --out=FILE\n");
    return 1;
  }
  std::string key = args.get_string("trace-key", "");
  if (key.empty()) key = std::filesystem::path(in).stem().string();
  common::warn_unused(args);

  trace::TextTraceReader reader(in);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.error().c_str());
    return 1;
  }
  std::vector<std::uint64_t> packed;
  std::uint64_t fetches = 0;
  trace::MemOp op;
  while (reader.next(op)) {
    if (op.addr >= (std::uint64_t{1} << 62)) {
      std::fprintf(stderr,
                   "%s: op %zu address %" PRIx64 " exceeds the packed "
                   "62-bit address space\n",
                   in.c_str(), packed.size(), op.addr);
      return 1;
    }
    fetches += op.type == trace::OpType::inst_fetch;
    packed.push_back(trace::MaterializedTrace::pack(op));
  }
  if (!reader.error().empty()) {
    std::fprintf(stderr, "import refused: %s (op %zu)\n",
                 reader.error().c_str(), packed.size());
    return 1;
  }
  if (packed.empty()) {
    std::fprintf(stderr, "import refused: %s holds no ops\n", in.c_str());
    return 1;
  }
  // A TraceCpu reads one fetch past its budget, so a file with F fetches
  // covers budgets up to F - 1 instructions.
  const std::uint64_t instructions = fetches > 0 ? fetches - 1 : 0;
  std::string error;
  if (!trace::write_trace_file(out, packed, instructions, key,
                               {{"imported_from", in}}, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("%s: %zu ops, %" PRIu64 " instructions, trace_key %s\n",
              out.c_str(), packed.size(), instructions, key.c_str());
  return 0;
}

int verify(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "--verify needs store files as arguments\n");
    return 1;
  }
  for (const auto& path : files) {
    std::string error;
    const auto mapped = trace::MappedTraceFile::open(path, &error);
    if (!mapped) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("%s: ok (trace_key %s, %" PRIu64 " ops, %" PRIu64
                " instructions)\n",
                path.c_str(), mapped->info().trace_key.c_str(),
                mapped->info().op_count, mapped->info().instructions);
  }
  return 0;
}

int dump(const std::vector<std::string>& files, std::uint64_t max_ops) {
  if (files.empty()) {
    std::fprintf(stderr, "--dump needs store files as arguments\n");
    return 1;
  }
  for (const auto& path : files) {
    std::string error;
    const auto mapped = trace::MappedTraceFile::open(path, &error);
    if (!mapped) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("# %s: version %u, %" PRIu64 " ops, %" PRIu64
                " instructions\n",
                path.c_str(), mapped->info().version, mapped->info().op_count,
                mapped->info().instructions);
    for (const auto& [k, v] : mapped->info().meta)
      std::printf("# %s = %s\n", k.c_str(), v.c_str());
    trace::FileTraceSource source(mapped);
    trace::MemOp op;
    std::uint64_t n = 0;
    while (n < max_ops && source.next(op)) {
      const char kind = op.type == trace::OpType::inst_fetch ? 'I'
                        : op.type == trace::OpType::load     ? 'L'
                                                             : 'S';
      std::printf("%c %" PRIx64 "\n", kind, op.addr);
      ++n;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  if (args.has("help")) return usage(argv[0]);
  if (args.has("version")) {
    std::puts(campaign::build_info_line("reap_trace").c_str());
    return 0;
  }

  const bool mode_materialize = args.has("materialize");
  const bool mode_import = args.has("import");
  const bool mode_verify = args.has("verify");
  const bool mode_dump = args.has("dump");
  if (mode_materialize + mode_import + mode_verify + mode_dump != 1)
    return usage(argv[0]);

  if (mode_materialize) return materialize(args);
  if (mode_import) return import_text(args);
  const auto max_ops = args.get_u64("max-ops", UINT64_MAX);
  common::warn_unused(args);
  if (mode_verify) return verify(args.positional());
  return dump(args.positional(), max_ops);
}
