#include "reap/campaign/result_sink.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "reap/common/csv.hpp"
#include "reap/common/fault.hpp"
#include "reap/common/jsonl.hpp"
#include "reap/common/strings.hpp"
#include "reap/core/config_kv.hpp"

namespace reap::campaign {
namespace {

std::string fmt(double v) { return common::fmt_double(v); }
std::string fmt(std::uint64_t v) { return std::to_string(v); }

// The sink.write / sink.close fault sites: an injected fault fails the
// sink the way a short write does, so the output step reports the path.
bool injected(const char* site, const std::string& path) {
  return common::fault::hit(site, path).has_value();
}

}  // namespace

std::vector<std::string> result_header() {
  return {"index",
          "workload",
          "policy",
          "ecc_t",
          "mtj",
          "seed",
          "p_rd",
          "instructions",
          "cycles",
          "ipc",
          "sim_seconds",
          "l2_hit_cycles",
          "l2_read_hit_rate",
          "mttf_seconds",
          "failure_rate_per_s",
          "failure_prob_sum",
          "checks",
          "max_concealed",
          "energy_dynamic_j",
          "energy_ecc_decode_j",
          "energy_data_write_j",
          "config"};
}

std::vector<std::string> result_cells(const CampaignPoint& point,
                                      const core::ExperimentResult& r) {
  const auto& cfg = point.config;
  return {fmt(std::uint64_t(point.index)),
          r.workload,
          core::to_string(r.policy),
          fmt(std::uint64_t(cfg.ecc_t)),
          cfg.mtj.name,
          fmt(cfg.seed),
          fmt(r.p_rd),
          fmt(r.instructions),
          fmt(r.cycles),
          fmt(r.ipc),
          fmt(r.sim_seconds),
          fmt(std::uint64_t(r.l2_hit_cycles)),
          fmt(r.hier.l2.read_hit_rate()),
          fmt(r.mttf.mttf_seconds),
          fmt(r.mttf.failure_rate_per_s),
          fmt(r.mttf.failure_prob_sum),
          fmt(r.checks),
          fmt(r.max_concealed),
          fmt(r.energy.dynamic_total_j()),
          fmt(r.energy.ecc_decode_j),
          fmt(r.energy.data_write_j),
          core::to_kv_string(cfg)};
}

// ---------------------------------------------------------------- CSV sink

struct CsvResultSink::Impl {
  explicit Impl(const std::string& path)
      : path(path), writer(path, result_header()) {}
  std::string path;
  common::CsvWriter writer;
  bool failed = false;  // an injected sink.write fault fired
};

CsvResultSink::CsvResultSink(const std::string& path)
    : impl_(std::make_unique<Impl>(path)) {}
CsvResultSink::~CsvResultSink() = default;
bool CsvResultSink::ok() const {
  return !impl_->failed && impl_->writer.ok();
}

void CsvResultSink::add_cells(const std::vector<std::string>& cells) {
  if (injected("sink.write", impl_->path)) impl_->failed = true;
  if (!impl_->failed) impl_->writer.add_row(cells);
}

bool CsvResultSink::close() {
  const bool landed = impl_->writer.close();
  return !injected("sink.close", impl_->path) && landed && !impl_->failed;
}

// -------------------------------------------------------------- JSONL sink

namespace {

// Cells that are plain *finite* numbers representable in a double are
// emitted unquoted; everything else becomes a JSON string. Two traps this
// avoids: strtod happily parses "inf"/"nan" (bare inf is invalid JSON),
// and 64-bit seeds exceed 2^53, so double-based JSON parsers would
// silently round them -- those go out quoted. "Plain number" is strtod's
// reading of the whole cell, which parse_double decides (a from_chars fast
// path, strtod for whatever it does not accept).
bool emit_unquoted(const std::string& s) {
  double d = 0.0;
  if (!common::parse_double(s, d) || !std::isfinite(d)) return false;
  // Integers above 2^53 are not exactly representable as doubles.
  if (std::none_of(s.begin(), s.end(),
                   [](char c) { return c == '.' || c == 'e' || c == 'E'; })) {
    std::uint64_t u = 0;
    if (!common::parse_u64(s, u)) return false;
    if (u > (1ULL << 53)) return false;
  }
  return true;
}
}  // namespace

std::string jsonl_fields(const std::vector<std::string>& header,
                         const std::vector<std::string>& cells) {
  std::string out;
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < cells.size() && i < header.size(); ++i)
    bytes += header[i].size() + cells[i].size() + 6;
  out.reserve(bytes);
  for (std::size_t i = 0; i < cells.size() && i < header.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += header[i];
    out += "\":";
    if (emit_unquoted(cells[i]) && header[i] != "workload") {
      out += cells[i];
    } else {
      out += '"';
      out += common::json_escape(cells[i]);
      out += '"';
    }
  }
  return out;
}

struct JsonlResultSink::Impl {
  explicit Impl(const std::string& path) : path(path), out(path) {}
  std::string path;
  std::ofstream out;
  std::vector<std::string> header = result_header();
};

JsonlResultSink::JsonlResultSink(const std::string& path)
    : impl_(std::make_unique<Impl>(path)) {}
JsonlResultSink::~JsonlResultSink() = default;
bool JsonlResultSink::ok() const { return static_cast<bool>(impl_->out); }

void JsonlResultSink::add_cells(const std::vector<std::string>& cells) {
  if (injected("sink.write", impl_->path))
    impl_->out.setstate(std::ios::badbit);
  if (!impl_->out) return;
  impl_->out << '{' << jsonl_fields(impl_->header, cells) << "}\n";
}

bool JsonlResultSink::close() {
  if (impl_->out.is_open()) impl_->out.close();
  return !injected("sink.close", impl_->path) && !impl_->out.fail();
}

void emit_all(const std::vector<CampaignPoint>& points,
              const std::vector<core::ExperimentResult>& results,
              ResultSink& sink) {
  for (std::size_t i = 0; i < points.size() && i < results.size(); ++i)
    sink.add(points[i], results[i]);
}

}  // namespace reap::campaign
