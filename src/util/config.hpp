// Minimal INI-style configuration parser for scenario files.
//
// Sections may repeat (each [cluster] block describes one Compute Server):
// sections() reads a repeated one, and section() refuses a name that
// repeats. Lines are `key = value`, each key at most once per section; `#`
// and `;` start comments; whitespace is trimmed. No escapes, no quoting —
// scenario files are simple.
#pragma once

#include <istream>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace faucets {

class ConfigSection {
 public:
  explicit ConfigSection(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Adds `key`; returns false, and changes nothing, when the section
  /// already has it.
  bool set(std::string key, std::string value) {
    return values_.try_emplace(std::move(key), std::move(value)).second;
  }
  [[nodiscard]] bool has(const std::string& key) const { return values_.contains(key); }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// Throws std::invalid_argument when present but unparsable.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& values() const noexcept {
    return values_;
  }

 private:
  std::string name_;
  std::map<std::string, std::string> values_;
};

class ConfigFile {
 public:
  /// Parse from a stream. Throws std::invalid_argument on malformed lines
  /// (with line numbers in the message).
  static ConfigFile parse(std::istream& in);
  static ConfigFile parse_string(const std::string& text);

  /// All sections named `name`, in file order.
  [[nodiscard]] std::vector<const ConfigSection*> sections(const std::string& name) const;
  /// The one section named `name`, or nullptr. Throws std::invalid_argument
  /// when the name repeats, so a second [faults] is never ignored silently.
  [[nodiscard]] const ConfigSection* section(const std::string& name) const;

 private:
  std::vector<ConfigSection> sections_;
};

/// Trim leading/trailing whitespace (helper, exposed for tests).
[[nodiscard]] std::string trim(const std::string& text);

/// The one number parser of config files and command lines: all of `text`
/// must be a number of type T (double or long), give or take surrounding
/// whitespace, and NaN is refused (infinities are numbers). Throws
/// std::invalid_argument naming `what` (a flag such as "--until", or a
/// section key) otherwise.
template <typename T>
[[nodiscard]] T parse_number(const std::string& text, const std::string& what);

}  // namespace faucets
