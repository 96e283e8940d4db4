#include "reap/trace/trace_io.hpp"

#include <cinttypes>

namespace reap::trace {

bool VectorTraceSource::next(MemOp& op) {
  if (pos_ >= ops_.size()) return false;
  op = ops_[pos_++];
  return true;
}

TextTraceReader::TextTraceReader(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "r");
  if (!file_) error_ = "cannot open " + path_;
}

TextTraceReader::~TextTraceReader() {
  if (file_) std::fclose(file_);
}

bool TextTraceReader::next(MemOp& op) {
  // A set error latches: EOF and a parse failure both surface as `return
  // false`, so a caller that kept pulling past an error would otherwise
  // resume mid-garbage and silently truncate the trace. Callers tell the
  // two apart via error() (empty = clean EOF).
  if (!file_ || !error_.empty()) return false;
  for (;;) {
    char kind = 0;
    const int rk = std::fscanf(file_, " %c", &kind);
    if (rk == EOF) return false;
    if (kind == '#') {  // comment line: skip to newline
      int ch;
      while ((ch = std::fgetc(file_)) != EOF && ch != '\n') {
      }
      continue;
    }
    std::uint64_t addr = 0;
    if (std::fscanf(file_, " %" SCNx64, &addr) != 1) {
      error_ = "parse error in " + path_;
      return false;
    }
    switch (kind) {
      case 'I': op = {OpType::inst_fetch, addr}; return true;
      case 'L': op = {OpType::load, addr}; return true;
      case 'S': op = {OpType::store, addr}; return true;
      default:
        error_ = "unknown op kind in " + path_;
        return false;
    }
  }
}

void TextTraceReader::reset() {
  if (!file_) return;  // keep the cannot-open error
  std::rewind(file_);
  error_.clear();
}

bool write_text_trace(const std::string& path, TraceSource& source,
                      std::uint64_t max_ops) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  MemOp op;
  std::uint64_t n = 0;
  bool ok = true;
  while (n < max_ops && source.next(op)) {
    const char kind = op.type == OpType::inst_fetch ? 'I'
                      : op.type == OpType::load     ? 'L'
                                                    : 'S';
    if (std::fprintf(f, "%c %" PRIx64 "\n", kind, op.addr) < 0) {
      ok = false;
      break;
    }
    ++n;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace reap::trace
