// Deterministic JSON reading/writing for the sweep subsystem.
//
// Writing: sweep results must be byte-identical across thread counts and
// machines, so numbers are formatted with std::to_chars (shortest
// round-trip form, locale-independent) — never with iostreams, whose
// output depends on precision state and locale.
//
// Reading: the regression gate's committed baselines are JSON files this
// subsystem itself emits, so the parser supports exactly that subset —
// objects, strings, and finite numbers, arbitrarily nested. It is strict
// (trailing garbage, bad escapes, and unterminated structures all throw).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace faucets::sweep {

/// Shortest round-trip decimal form of `value` (to_chars). "0.9" stays
/// "0.9", not "0.90000000000000002".
[[nodiscard]] std::string format_double(double value);

/// Parsed JSON value: an object tree with number/string leaves.
class JsonValue {
 public:
  enum class Kind { kObject, kNumber, kString };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Number/string accessors throw std::invalid_argument on kind mismatch.
  [[nodiscard]] double number() const;
  [[nodiscard]] const std::string& string() const;

  /// Object accessors. `get` returns nullptr when the key is absent;
  /// `at` throws with the key in the message.
  [[nodiscard]] const JsonValue* get(const std::string& key) const;
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, JsonValue>& members() const;

  /// Strict parse of a complete document. Throws std::invalid_argument
  /// with a byte offset on malformed input.
  static JsonValue parse(std::string_view text);

  static JsonValue make_number(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_object();
  JsonValue& set(const std::string& key, JsonValue v);

 private:
  Kind kind_ = Kind::kObject;
  double number_ = 0.0;
  std::string string_;
  std::map<std::string, JsonValue> members_;
};

}  // namespace faucets::sweep
