#include "reap/common/jsonl.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace reap::common {
namespace {

// Where the next '"' or '\\' at or after `i` sits; npos when none does.
// Most strings end within a few bytes, so those are looked at one by one
// before memchr searches the rest.
std::size_t next_quote_or_backslash(std::string_view line, std::size_t i) {
  for (const std::size_t near = std::min(line.size(), i + 32); i < near; ++i)
    if (line[i] == '"' || line[i] == '\\') return i;
  if (i >= line.size()) return std::string_view::npos;
  const char* const from = line.data() + i;
  const std::size_t n = line.size() - i;
  const auto* quote = static_cast<const char*>(std::memchr(from, '"', n));
  const std::size_t before = quote ? static_cast<std::size_t>(quote - from) : n;
  if (const auto* backslash =
          static_cast<const char*>(std::memchr(from, '\\', before)))
    return i + static_cast<std::size_t>(backslash - from);
  return quote ? i + before : std::string_view::npos;
}

// Scans a double-quoted string starting at line[i] == '"'; advances i past
// the closing quote and views the text between the quotes. Recognizes the
// escapes the emitter produces plus \/ and \r for tolerance; \uXXXX is not
// needed (we never emit it).
bool scan_string(std::string_view line, std::size_t& i, std::string_view& out,
                 bool& escaped) {
  const std::size_t begin = ++i;  // past the opening quote
  escaped = false;
  for (;;) {
    i = next_quote_or_backslash(line, i);
    if (i == std::string_view::npos) return false;  // unterminated
    if (line[i] == '"') {
      out = line.substr(begin, i - begin);
      ++i;
      return true;
    }
    if (i + 1 >= line.size()) return false;
    switch (line[i + 1]) {
      case '"': case '\\': case '/': case 'n': case 't': case 'r': break;
      default: return false;
    }
    escaped = true;
    i += 2;
  }
}

// What a byte does to a raw (unquoted) value: ends it, is refused by the
// subset (a nested container, a stray quote), or belongs to it.
enum RawByte : unsigned char { kRawPart, kRawEnd, kRawRefused };
constexpr std::array<RawByte, 256> kRawBytes = [] {
  std::array<RawByte, 256> kinds{};
  kinds[','] = kinds['}'] = kRawEnd;
  kinds['{'] = kinds['['] = kinds['"'] = kRawRefused;
  return kinds;
}();

// Resolves the escapes of a string scan_string accepted.
std::string unescape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '\\') {
      out += raw[i];
      continue;
    }
    switch (raw[++i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      default: out += raw[i]; break;  // \" \\ \/
    }
  }
  return out;
}

}  // namespace

bool JsonlField::name_is(std::string_view s) const {
  return name_escaped ? unescape(name) == s : name == s;
}

std::string JsonlField::name_text() const {
  return name_escaped ? unescape(name) : std::string(name);
}

std::string JsonlField::value_text() const {
  return value_escaped ? unescape(value) : std::string(value);
}

void JsonlField::value_to(std::string& out) const {
  if (value_escaped)
    out = unescape(value);
  else
    out.assign(value);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

bool scan_jsonl_line(std::string_view line, std::vector<JsonlField>& out) {
  out.clear();
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') {
    ++i;
    skip_ws();
    return i == line.size();
  }
  while (true) {
    skip_ws();
    if (i >= line.size() || line[i] != '"') return false;
    JsonlField f;
    if (!scan_string(line, i, f.name, f.name_escaped)) return false;
    skip_ws();
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skip_ws();
    if (i >= line.size()) return false;
    if (line[i] == '"') {
      if (!scan_string(line, i, f.value, f.value_escaped)) return false;
    } else {
      // Raw token: everything up to the next comma or closing brace. The
      // emitter only writes number tokens here, but the parser does not
      // care -- the bytes ARE the cell. One pass finds the end and
      // rejects what the subset lacks (nested containers, a stray quote).
      std::size_t end = i;
      RawByte kind = kRawPart;
      while (end < line.size() &&
             (kind = kRawBytes[static_cast<unsigned char>(line[end])]) ==
                 kRawPart)
        ++end;
      if (kind == kRawRefused || end == line.size() || end == i) return false;
      f.value = line.substr(i, end - i);
      i = end;
    }
    out.push_back(f);
    skip_ws();
    if (i >= line.size()) return false;
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') {
      ++i;
      skip_ws();
      return i == line.size();
    }
    return false;
  }
}

std::optional<JsonlFields> parse_jsonl_line(const std::string& line) {
  std::vector<JsonlField> views;
  if (!scan_jsonl_line(line, views)) return std::nullopt;
  JsonlFields fields;
  fields.reserve(views.size());
  for (const JsonlField& f : views)
    fields.emplace_back(f.name_text(), f.value_text());
  return fields;
}

}  // namespace reap::common
