// Minimal JSON reader. Nothing in src/ reads JSON: the reader is the
// validity oracle tests hold the `--metrics-json` dump (obs::Snapshot::
// to_json) against. It accepts exactly RFC 8259 documents (objects,
// arrays, strings with escapes, numbers, booleans, null) and rejects
// everything else. Writing is done by hand at the call sites with
// obs::json_escape.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ctaver::svc {

/// Parsed JSON value. Object member order is not preserved (std::map):
/// members are addressed by name.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one complete JSON document; trailing non-whitespace or any
  /// syntax error throws std::runtime_error with a byte offset.
  static Json parse(const std::string& text);

  Json() = default;

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }

  [[nodiscard]] bool as_bool(bool fallback = false) const;
  [[nodiscard]] double as_number(double fallback = 0) const;
  [[nodiscard]] long long as_int(long long fallback = 0) const;
  [[nodiscard]] const std::string& as_string() const;  // "" unless string

  [[nodiscard]] std::size_t size() const;  // array/object arity, else 0
  /// Object member by name; a shared null value if absent or not an object.
  [[nodiscard]] const Json& operator[](const std::string& key) const;
  /// Array element; the shared null value when out of range.
  [[nodiscard]] const Json& at(std::size_t i) const;

  /// String member convenience: the string at `key`, or `fallback` when it
  /// is absent or not a string.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;

  friend class Parser;
};

}  // namespace ctaver::svc
