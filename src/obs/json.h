// Minimal JSON emission for the observability layer: the Chrome-trace sink
// and the per-request explain report both build strings with this writer, so
// escaping and number formatting live in one place. Append-only and
// allocation-light (one growing string); not a DOM.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace pipette::obs {

/// Appends `s` to `out` as a quoted JSON string with the mandatory escapes.
inline void json_append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Appends `v` as a JSON number. JSON has no Inf/NaN, so those become null;
/// %.17g round-trips every finite double bit-exactly.
inline void json_append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Comma-managed writer over one output string: key() before each value in an
/// object, arrays take bare values. Nesting is the caller's responsibility
/// (begin/end calls must balance); the explain/trace emitters are simple
/// enough that a stack would be ceremony.
class JsonWriter {
 public:
  std::string& out() { return out_; }
  const std::string& str() const { return out_; }

  void begin_object() { comma(); out_ += '{'; first_ = true; }
  void end_object() { out_ += '}'; first_ = false; }
  void begin_array() { comma(); out_ += '['; first_ = true; }
  void end_array() { out_ += ']'; first_ = false; }

  /// Object key; follow with exactly one value (or begin_*).
  void key(std::string_view k) {
    comma();
    json_append_escaped(out_, k);
    out_ += ':';
    first_ = true;  // the value itself must not emit a comma
  }

  void value(std::string_view v) { comma(); json_append_escaped(out_, v); }
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v) { comma(); json_append_double(out_, v); }
  void value(long v) { comma(); out_ += std::to_string(v); }
  void value(int v) { comma(); out_ += std::to_string(v); }
  void value(bool v) { comma(); out_ += v ? "true" : "false"; }

 private:
  void comma() {
    if (!first_) out_ += ',';
    first_ = false;
  }

  std::string out_;
  bool first_ = true;
};

namespace detail {
inline void put_members(JsonWriter&) {}
template <typename V, typename... Rest>
void put_members(JsonWriter& w, std::string_view key, const V& value, const Rest&... rest) {
  w.key(key);
  w.value(value);
  put_members(w, rest...);
}
}  // namespace detail

/// One flat JSON object from alternating keys and values — the args payload
/// of a trace event: json_object("rung", r, "alive", n) == {"rung":r,"alive":n}.
template <typename... KeyValues>
std::string json_object(const KeyValues&... kv) {
  JsonWriter w;
  w.begin_object();
  detail::put_members(w, kv...);
  w.end_object();
  return w.str();
}

}  // namespace pipette::obs
