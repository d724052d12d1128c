// Minimal JSON document model for the evaluation reports.
//
// Deliberately small: objects preserve insertion order (so serialization is
// deterministic and diffs stay stable across runs), numbers are either
// int64 or shortest-round-trip doubles, and the parser accepts exactly what
// the writer emits plus standard JSON. Non-finite doubles are rejected at
// serialization time — every report metric is finite by construction.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace sfrv::eval {

class Json;
using JsonArray = std::vector<Json>;
/// Insertion-ordered key/value list (no key dedup; writers keep keys unique).
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(int i) : v_(static_cast<std::int64_t>(i)) {}
  Json(unsigned u) : v_(static_cast<std::int64_t>(u)) {}
  Json(std::int64_t i) : v_(i) {}
  Json(std::uint64_t u) : v_(static_cast<std::int64_t>(u)) {
    if (u > static_cast<std::uint64_t>(INT64_MAX)) {
      throw std::range_error("Json: uint64 value exceeds int64 range");
    }
  }
  Json(double d) : v_(d) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string_view s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(JsonArray a) : v_(std::move(a)) {}
  Json(JsonObject o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return holds<std::nullptr_t>(); }
  [[nodiscard]] bool is_bool() const { return holds<bool>(); }
  [[nodiscard]] bool is_int() const { return holds<std::int64_t>(); }
  [[nodiscard]] bool is_number() const { return is_int() || holds<double>(); }
  [[nodiscard]] bool is_string() const { return holds<std::string>(); }
  [[nodiscard]] bool is_array() const { return holds<JsonArray>(); }
  [[nodiscard]] bool is_object() const { return holds<JsonObject>(); }

  [[nodiscard]] bool as_bool() const { return get<bool>("bool"); }
  [[nodiscard]] std::int64_t as_int() const {
    return get<std::int64_t>("int");
  }
  [[nodiscard]] std::uint64_t as_uint() const {
    const auto i = as_int();
    if (i < 0) throw std::runtime_error("Json: negative value read as uint");
    return static_cast<std::uint64_t>(i);
  }
  /// Numeric value as double (accepts both int and double nodes).
  [[nodiscard]] double as_double() const {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
    return get<double>("number");
  }
  [[nodiscard]] const std::string& as_string() const {
    return get<std::string>("string");
  }
  [[nodiscard]] const JsonArray& array() const {
    return get<JsonArray>("array");
  }
  [[nodiscard]] const JsonObject& object() const {
    return get<JsonObject>("object");
  }

  /// First value under `key`, or nullptr when absent (object nodes only).
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// First value under `key`; throws when absent.
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// Serialize. `indent < 0` emits the compact single-line form; otherwise
  /// pretty-print with `indent` spaces per nesting level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; throws std::runtime_error with an
  /// offset-tagged message on malformed input, trailing garbage, or arrays
  /// and objects nested more than 256 levels deep.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  template <typename T>
  [[nodiscard]] bool holds() const {
    return std::holds_alternative<T>(v_);
  }
  template <typename T>
  [[nodiscard]] const T& get(const char* what) const {
    if (!holds<T>()) {
      throw std::runtime_error(std::string("Json: node is not a ") + what);
    }
    return std::get<T>(v_);
  }

  void write(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               JsonArray, JsonObject>
      v_;
};

}  // namespace sfrv::eval
