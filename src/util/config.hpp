// Minimal INI-style configuration parser for scenario files.
//
// Sections may repeat (each [cluster] block describes one Compute Server):
// sections() reads a repeated one, and section() refuses a name that
// repeats. Lines are `key = value`, each key at most once per section; `#`
// and `;` start comments; whitespace is trimmed. No escapes, no quoting —
// scenario files are simple. The file remembers which sections and keys its
// readers asked for, so first_unread() can name a misspelled one.
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
    return values_.try_emplace(std::move(key), Value{std::move(value)}).second;
  }

  /// The one read of a key, which every typed getter goes through: it marks
  /// the key read.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// Throws std::invalid_argument when present but unparsable.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

 private:
  friend class ConfigFile;
  struct Value {
    std::string text;
    mutable bool read = false;
  };

  std::string name_;
  std::map<std::string, Value> values_;
  mutable bool read_ = false;  // section() or sections() returned it
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

  /// In file order, the first section no reader asked for, as "[name]", or
  /// key of a section (in key order) no reader read, as "[name] key";
  /// nullopt when every one was read.
  [[nodiscard]] std::optional<std::string> first_unread() const;

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
