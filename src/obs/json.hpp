// Minimal JSON emission and parsing for the telemetry layer.
//
// JsonWriter builds syntactically valid JSON incrementally (comma handling
// via a state stack); JsonValue/parse_json is the matching reader used by
// tools/bench_diff and the round-trip and schema tests. Neither
// aims to be a general-purpose JSON library: no unicode escapes beyond
// pass-through UTF-8, numbers are doubles or 64-bit integers, and the
// parser rejects anything the writer cannot produce.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace scion::obs {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
std::string json_escape(std::string_view s);

/// Streaming JSON builder. Misuse (value without key inside an object,
/// unbalanced end_*) is a programming error caught by SCION_CHECK.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits `"key":`; must be inside an object.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view{v}); }
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value_null();

  /// Splices a pre-rendered JSON fragment in value position.
  JsonWriter& value_raw(std::string_view json);

  /// Shorthand for key(k).value(v).
  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  const std::string& str() const { return out_; }
  std::string take() && { return std::move(out_); }

 private:
  void before_value();

  std::string out_;
  // One frame per open object/array: whether a separator is needed before
  // the next element, and whether we are inside an object (expecting keys).
  struct Frame {
    bool needs_comma{false};
    bool is_object{false};
    bool have_key{false};
  };
  std::vector<Frame> stack_;
};

/// Parsed JSON document (object keys ordered for deterministic dumps).
struct JsonValue {
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;
  using Storage =
      std::variant<std::nullptr_t, bool, double, std::string, Array, Object>;

  Storage v{nullptr};

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v); }
  bool is_bool() const { return std::holds_alternative<bool>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_array() const { return std::holds_alternative<Array>(v); }
  bool is_object() const { return std::holds_alternative<Object>(v); }

  bool as_bool() const { return std::get<bool>(v); }
  double as_number() const { return std::get<double>(v); }
  const std::string& as_string() const { return std::get<std::string>(v); }
  const Array& as_array() const { return std::get<Array>(v); }
  const Object& as_object() const { return std::get<Object>(v); }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Parses one JSON document (must consume all non-whitespace input).
/// Returns nullopt and fills `error` (if given) on malformed input.
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

}  // namespace scion::obs
