#include "reap/trace/trace_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <utility>

#include "reap/common/crc32c.hpp"

namespace reap::trace {

namespace {

// 8 bytes, never version-bumped: the version field after it is.
constexpr char kMagic[8] = {'R', 'E', 'A', 'P', 'T', 'R', 'C', '\0'};
// Fixed fields before the metadata block: magic + version + meta_bytes +
// op_count + instructions + body CRC.
constexpr std::size_t kFixedBytes = 8 + 4 + 4 + 8 + 8 + 4;  // 36
constexpr std::size_t kHeaderCrcBytes = 4;

bool fail(std::string* error, const std::string& path,
          const std::string& reason) {
  if (error) *error = path + ": " + reason;
  return false;
}

// Little-endian scalar I/O via memcpy; the format is defined little-endian
// and every supported host is.
template <typename T>
T load_le(const unsigned char* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename T>
void store_le(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

std::string trimmed(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

}  // namespace

std::string trace_store_filename(const std::string& trace_key) {
  std::string name = trace_key;
  for (char& c : name)
    if (c == '/') c = '_';
  return name + kTraceStoreExt;
}

bool write_trace_file(const std::string& path,
                      std::span<const std::uint64_t> packed_ops,
                      std::uint64_t instructions,
                      const std::string& trace_key,
                      const std::map<std::string, std::string>& meta,
                      std::string* error) {
  if (trace_key.empty()) return fail(error, path, "empty trace_key");

  // Metadata block: sorted "key = value" lines (std::map order), the
  // mandatory trace_key among them, padded with newlines to 8-align the
  // body.
  std::map<std::string, std::string> kv = meta;
  kv["trace_key"] = trace_key;
  std::string meta_block;
  for (const auto& [k, v] : kv) {
    if (k.empty() || k.find_first_of("=\n") != std::string::npos ||
        v.find('\n') != std::string::npos)
      return fail(error, path, "metadata keys/values must be newline-free "
                               "and keys '='-free: '" + k + "'");
    meta_block += k + " = " + v + "\n";
  }
  while ((kFixedBytes + meta_block.size() + kHeaderCrcBytes) % 8 != 0)
    meta_block += '\n';
  if (meta_block.size() > UINT32_MAX)
    return fail(error, path, "metadata too large");

  const auto body =
      std::string_view(reinterpret_cast<const char*>(packed_ops.data()),
                       packed_ops.size() * sizeof(std::uint64_t));
  std::string header;
  header.reserve(kFixedBytes + meta_block.size() + kHeaderCrcBytes);
  header.append(kMagic, sizeof kMagic);
  store_le<std::uint32_t>(header, kTraceStoreVersion);
  store_le<std::uint32_t>(header, static_cast<std::uint32_t>(meta_block.size()));
  store_le<std::uint64_t>(header, packed_ops.size());
  store_le<std::uint64_t>(header, instructions);
  store_le<std::uint32_t>(header, common::crc32c(body));
  header += meta_block;
  store_le<std::uint32_t>(header, common::crc32c(header));

  // Atomic publish: a reader never sees a half-written store file, and a
  // crashed writer leaves only a .tmp to sweep up.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return fail(error, path, "cannot create " + tmp);
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  ok = ok && (body.empty() ||
              std::fwrite(body.data(), 1, body.size(), f) == body.size());
  ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail(error, path, "write failed");
  }
  return true;
}

bool write_trace_file(const std::string& path, const MaterializedTrace& trace,
                      const std::string& trace_key,
                      const std::map<std::string, std::string>& meta,
                      std::string* error) {
  return write_trace_file(path, trace.packed(), trace.instructions(),
                          trace_key, meta, error);
}

std::shared_ptr<const MappedTraceFile> MappedTraceFile::open(
    const std::string& path, std::string* error) {
  const auto reject = [&](const std::string& reason) {
    fail(error, path, reason);
    return std::shared_ptr<const MappedTraceFile>();
  };

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return reject("cannot open");
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return reject("cannot stat");
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return reject("empty file");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (map == MAP_FAILED) return reject("mmap failed");

  // From here on every exit must unmap; hand the mapping to the object
  // first and validate through it.
  auto file = std::shared_ptr<MappedTraceFile>(new MappedTraceFile());
  file->path_ = path;
  file->map_ = map;
  file->map_bytes_ = size;
  const auto* bytes = static_cast<const unsigned char*>(map);

  // Validation ladder: each rung has a distinct error so the corruption
  // battery can pin them one by one. Order matters -- nothing is trusted
  // before the check that covers it (sizes before reads, header CRC
  // before the fields it protects are *used*, body size before body CRC).
  if (size >= sizeof kMagic &&
      std::memcmp(bytes, kMagic, sizeof kMagic) != 0)
    return reject("bad magic");
  if (size < kFixedBytes + kHeaderCrcBytes) return reject("truncated header");
  const auto version = load_le<std::uint32_t>(bytes + 8);
  if (version != kTraceStoreVersion)
    return reject("unsupported version " + std::to_string(version));
  const auto meta_bytes = load_le<std::uint32_t>(bytes + 12);
  const std::uint64_t header_bytes =
      std::uint64_t{kFixedBytes} + meta_bytes + kHeaderCrcBytes;
  if (header_bytes > size) return reject("truncated header");
  const auto header_crc =
      load_le<std::uint32_t>(bytes + kFixedBytes + meta_bytes);
  const auto computed_header_crc = common::crc32c(
      {reinterpret_cast<const char*>(bytes), kFixedBytes + meta_bytes});
  if (header_crc != computed_header_crc) return reject("header CRC mismatch");
  if (header_bytes % 8 != 0) return reject("misaligned body");

  // The header is now trustworthy; decode it.
  auto& info = file->info_;
  info.version = version;
  info.op_count = load_le<std::uint64_t>(bytes + 16);
  info.instructions = load_le<std::uint64_t>(bytes + 24);
  const std::string_view meta{reinterpret_cast<const char*>(bytes) +
                                  kFixedBytes,
                              meta_bytes};
  std::size_t pos = 0;
  while (pos < meta.size()) {
    auto eol = meta.find('\n', pos);
    if (eol == std::string_view::npos) eol = meta.size();
    const std::string line{meta.substr(pos, eol - pos)};
    pos = eol + 1;
    if (trimmed(line).empty()) continue;  // alignment padding
    const auto eq = line.find('=');
    if (eq == std::string::npos) return reject("malformed metadata");
    const auto key = trimmed(line.substr(0, eq));
    if (key.empty()) return reject("malformed metadata");
    info.meta[key] = trimmed(line.substr(eq + 1));
  }
  const auto tk = info.meta.find("trace_key");
  if (tk == info.meta.end() || tk->second.empty())
    return reject("missing trace_key");
  info.trace_key = tk->second;

  // Body extent: the file must hold exactly header + op_count ops.
  if (info.op_count > (UINT64_MAX - header_bytes) / sizeof(std::uint64_t) ||
      header_bytes + info.op_count * sizeof(std::uint64_t) > size)
    return reject("truncated body");
  if (header_bytes + info.op_count * sizeof(std::uint64_t) < size)
    return reject("op count/file size mismatch");
  file->body_ = reinterpret_cast<const std::uint64_t*>(bytes + header_bytes);

  const auto body_crc = load_le<std::uint32_t>(bytes + 32);
  const auto computed_body_crc = common::crc32c(
      {reinterpret_cast<const char*>(file->body_),
       info.op_count * sizeof(std::uint64_t)});
  if (body_crc != computed_body_crc) return reject("body CRC mismatch");

  return file;
}

MappedTraceFile::~MappedTraceFile() {
  if (map_) ::munmap(map_, map_bytes_);
}

MaterializedTrace MappedTraceFile::borrow(
    std::shared_ptr<const MappedTraceFile> self) const {
  return MaterializedTrace::borrow(body(), info_.instructions,
                                   std::move(self));
}

bool FileTraceSource::next(MemOp& op) {
  return next_batch({&op, 1}) == 1;
}

std::size_t FileTraceSource::next_batch(std::span<MemOp> out) {
  const auto body = file_->body();
  if (pos_ >= body.size()) return 0;
  const std::size_t n = std::min(out.size(), body.size() - pos_);
  const std::uint64_t* src = body.data() + pos_;
  for (std::size_t i = 0; i < n; ++i)
    out[i] = MaterializedTrace::unpack(src[i]);
  pos_ += n;
  return n;
}

}  // namespace reap::trace
