#include "src/util/config.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace faucets {

std::string trim(const std::string& text) {
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return {};
  const auto last = text.find_last_not_of(" \t\r\n");
  return text.substr(first, last - first + 1);
}

template <typename T>
T parse_number(const std::string& text, const std::string& what) {
  try {
    std::size_t used = 0;
    T value;
    if constexpr (std::is_same_v<T, double>) {
      value = std::stod(text, &used);
    } else {
      value = std::stol(text, &used);
    }
    // A NaN fails every comparison, so a check such as `until > now`
    // cannot refuse it: it is no number here.
    bool nan = false;
    if constexpr (std::is_same_v<T, double>) nan = std::isnan(value);
    if (!nan && trim(text.substr(used)).empty()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument(what +
                              (std::is_same_v<T, double> ? " is not a number: '"
                                                         : " is not an integer: '") +
                              text + "'");
}

template double parse_number<double>(const std::string&, const std::string&);
template long parse_number<long>(const std::string&, const std::string&);

std::optional<std::string> ConfigSection::get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  it->second.read = true;
  return it->second.text;
}

std::string ConfigSection::get_string(const std::string& key,
                                      const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double ConfigSection::get_double(const std::string& key, double fallback) const {
  const auto raw = get(key);
  return raw ? parse_number<double>(*raw, "config: [" + name_ + "] " + key) : fallback;
}

long ConfigSection::get_int(const std::string& key, long fallback) const {
  const auto raw = get(key);
  return raw ? parse_number<long>(*raw, "config: [" + name_ + "] " + key) : fallback;
}

bool ConfigSection::get_bool(const std::string& key, bool fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  std::string lower = trim(*raw);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "true" || lower == "yes" || lower == "on" || lower == "1") return true;
  if (lower == "false" || lower == "no" || lower == "off" || lower == "0") {
    return false;
  }
  throw std::invalid_argument("config: [" + name_ + "] " + key +
                              " is not a boolean: '" + *raw + "'");
}

ConfigFile ConfigFile::parse(std::istream& in) {
  ConfigFile out;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Strip comments.
    for (const char marker : {'#', ';'}) {
      const auto pos = line.find(marker);
      if (pos != std::string::npos) line.erase(pos);
    }
    const std::string text = trim(line);
    if (text.empty()) continue;

    if (text.front() == '[') {
      if (text.back() != ']' || text.size() < 3) {
        throw std::invalid_argument("config line " + std::to_string(line_number) +
                                    ": malformed section header '" + text + "'");
      }
      out.sections_.emplace_back(trim(text.substr(1, text.size() - 2)));
      continue;
    }

    const auto eq = text.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("config line " + std::to_string(line_number) +
                                  ": expected key = value, got '" + text + "'");
    }
    if (out.sections_.empty()) {
      throw std::invalid_argument("config line " + std::to_string(line_number) +
                                  ": key outside any section");
    }
    ConfigSection& section = out.sections_.back();
    const std::string key = trim(text.substr(0, eq));
    if (!section.set(key, trim(text.substr(eq + 1)))) {
      throw std::invalid_argument("config line " + std::to_string(line_number) + ": [" +
                                  section.name() + "] " + key + " is given twice");
    }
  }
  return out;
}

ConfigFile ConfigFile::parse_string(const std::string& text) {
  std::istringstream stream{text};
  return parse(stream);
}

std::vector<const ConfigSection*> ConfigFile::sections(const std::string& name) const {
  std::vector<const ConfigSection*> out;
  for (const auto& s : sections_) {
    if (s.name() != name) continue;
    s.read_ = true;
    out.push_back(&s);
  }
  return out;
}

const ConfigSection* ConfigFile::section(const std::string& name) const {
  const auto all = sections(name);
  if (all.size() > 1) {
    throw std::invalid_argument("config: [" + name + "] appears more than once");
  }
  return all.empty() ? nullptr : all.front();
}

std::optional<std::string> ConfigFile::first_unread() const {
  for (const auto& s : sections_) {
    if (!s.read_) return "[" + s.name() + "]";
    for (const auto& [key, value] : s.values_) {
      if (!value.read) return "[" + s.name() + "] " + key;
    }
  }
  return std::nullopt;
}

}  // namespace faucets
