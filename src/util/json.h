// Minimal JSON value + recursive-descent parser for the plan daemon's
// newline-delimited request protocol (and for tests that want to poke at the
// JSON the system emits). Deliberately small: objects keep insertion order,
// numbers are doubles, \uXXXX escapes decode to UTF-8. Parsing reports the
// first problem as a ds::Status instead of throwing — a malformed request
// must produce an error *response*, not kill the daemon.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ds::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }

  // Typed reads with a fallback — the daemon treats absent and wrong-typed
  // fields identically (use the default).
  double num_or(double fallback) const {
    return type_ == Type::kNumber ? number_ : fallback;
  }
  bool bool_or(bool fallback) const {
    return type_ == Type::kBool ? bool_ : fallback;
  }
  const std::string& str_or(const std::string& fallback) const {
    return type_ == Type::kString ? string_ : fallback;
  }

  // Object member lookup (first match); nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  const std::vector<Value>& array() const { return array_; }
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }

 private:
  friend class Parser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> members_;
};

// Parse one JSON document (trailing whitespace allowed, anything else after
// the value is an error). On failure `out` is left null.
Status parse(std::string_view text, Value* out);

// Write `s` as a JSON string literal (quotes included, control characters
// and backslashes escaped) — the one piece every hand-rolled JSON writer in
// this repo needs to get right.
void write_string(std::ostream& os, std::string_view s);

// `v` as a JSON number with `digits` significant digits (printf's %.*g) —
// the scalar counterpart of write_string for the same writers.
std::string number(double v, int digits);

}  // namespace ds::json
