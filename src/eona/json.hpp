// Minimal JSON value model: the lab tool, the sweep collator and the benches
// build their results as JsonValues and print them with dump().
// Self-contained: null/bool/number/string/array/object plus a strict parser
// (CodecError on malformed input or trailing garbage). Objects are sorted
// maps, so dump() output is byte-stable.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace eona::core {

/// Minimal JSON value: null, bool, number (double), string, array, object.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue boolean(bool v);
  static JsonValue number(double v);
  static JsonValue string(std::string v);
  static JsonValue array();
  static JsonValue object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }

  // Checked accessors; CodecError on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::map<std::string, JsonValue>& as_object() const;

  // Builders.
  void push_back(JsonValue v);                      ///< array append
  void set(const std::string& key, JsonValue v);    ///< object insert

  /// Object field lookup; CodecError when missing.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const;

  /// Serialise (stable field order: objects are sorted maps).
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parse; throws CodecError on any malformed input or trailing garbage.
  static JsonValue parse(const std::string& text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

}  // namespace eona::core
