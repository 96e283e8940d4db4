// Single-line flat JSON objects: the interchange format of the campaign
// JSONL sink and the execution journal.
//
// The emitter writes one object per line whose values are either raw
// (unquoted) number tokens or escaped strings -- never nested containers.
// The parser accepts exactly that subset and hands every value back as the
// original cell text: an unquoted token verbatim, a quoted string
// unescaped. That makes emit(parse(line)) a byte-identical round trip,
// which journal replay and shard merging depend on.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace reap::common {

// Key/value pairs in document order; values are the raw cell text.
using JsonlFields = std::vector<std::pair<std::string, std::string>>;

// One field of a line, as views into the line: no bytes are copied. A
// quoted name or value is viewed without its quotes and may still hold
// backslash escapes (flagged, and already validated by the scan); an
// unquoted value is the raw token.
struct JsonlField {
  std::string_view name;
  std::string_view value;
  bool name_escaped = false;
  bool value_escaped = false;

  // Whether the (unescaped) name equals `s`.
  bool name_is(std::string_view s) const;
  // The name and the value (the cell text), unescaped.
  std::string name_text() const;
  std::string value_text() const;
  // value_text into `out`, reusing its capacity.
  void value_to(std::string& out) const;
};

// Escapes for embedding in a double-quoted JSON string.
std::string json_escape(const std::string& s);

// Parses one `{"k":v,...}` line of the subset described above. Returns
// nullopt on anything malformed (truncated line, nested containers,
// missing colon...). Duplicate keys are preserved in order.
std::optional<JsonlFields> parse_jsonl_line(const std::string& line);

// parse_jsonl_line without the copies: accepts exactly the same lines and
// yields the same fields, as views into `line` (valid while it is).
// Clears `out` first; returns false on a malformed line.
bool scan_jsonl_line(std::string_view line, std::vector<JsonlField>& out);

}  // namespace reap::common
