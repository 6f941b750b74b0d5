// Minimal --key=value command-line flag parser for the benchmark binaries.
#ifndef SRC_UTIL_CLI_H_
#define SRC_UTIL_CLI_H_

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace prestore {

class CliFlags {
 public:
  CliFlags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg(argv[i]);
      if (arg.rfind("--", 0) != 0) {
        continue;
      }
      arg.remove_prefix(2);
      const size_t eq = arg.find('=');
      if (eq == std::string_view::npos) {
        flags_[std::string(arg)] = "true";
      } else {
        flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = flags_.find(key);
    return it == flags_.end() ? fallback : it->second;
  }

  // The numeric and boolean getters exit 1 (RejectMalformed) on a value
  // that does not parse completely, so "--workers=abc" or
  // "--batched_clean=ture" cannot silently run another configuration.
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = flags_.find(key);
    if (it == flags_.end()) {
      return fallback;
    }
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) {
      RejectMalformed(key, it->second);
    }
    return value;
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags_.find(key);
    if (it == flags_.end()) {
      return fallback;
    }
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE) {
      RejectMalformed(key, it->second);
    }
    return value;
  }

  // true|1|yes or false|0|no; a bare --flag reads as true.
  bool GetBool(const std::string& key, bool fallback) const {
    auto it = flags_.find(key);
    if (it == flags_.end()) {
      return fallback;
    }
    const std::string& v = it->second;
    if (v == "true" || v == "1" || v == "yes") {
      return true;
    }
    if (v != "false" && v != "0" && v != "no") {
      RejectMalformed(key, v);
    }
    return false;
  }

  bool Has(const std::string& key) const { return flags_.count(key) > 0; }

  // An enumerated flag: its value (or `fallback` when absent) when that is
  // one of the '|'-separated `accepted` spellings; otherwise RejectValue and
  // std::nullopt, on which the caller exits 1 instead of silently running a
  // default.
  std::optional<std::string> GetChoice(const std::string& key,
                                       const std::string& fallback,
                                       std::string_view accepted) const {
    const std::string value = GetString(key, fallback);
    size_t pos = 0;
    while (pos <= accepted.size()) {
      const size_t bar = std::min(accepted.find('|', pos), accepted.size());
      if (accepted.substr(pos, bar - pos) == value) {
        return value;
      }
      pos = bar + 1;
    }
    RejectValue(key, value, accepted);
    return std::nullopt;
  }

  // Reports an unknown value of an enumerated flag and the accepted list.
  static void RejectValue(std::string_view key, std::string_view value,
                          std::string_view accepted) {
    std::fprintf(stderr, "unknown --%.*s value '%.*s' (accepted: %.*s)\n",
                 static_cast<int>(key.size()), key.data(),
                 static_cast<int>(value.size()), value.data(),
                 static_cast<int>(accepted.size()), accepted.data());
  }

  // Reports a numeric or boolean value that does not parse and exits 1.
  [[noreturn]] static void RejectMalformed(std::string_view key,
                                           std::string_view value) {
    std::fprintf(stderr, "invalid --%.*s value '%.*s'\n",
                 static_cast<int>(key.size()), key.data(),
                 static_cast<int>(value.size()), value.data());
    std::exit(1);
  }

  // Flags that were passed but are not in `known` ("help" is always known).
  // CLIs reject these up front so a typo ("--monitered") fails loudly
  // instead of silently running the default configuration.
  std::vector<std::string> UnknownFlags(
      std::initializer_list<std::string_view> known) const {
    std::vector<std::string> unknown;
    for (const auto& [key, value] : flags_) {
      (void)value;
      if (key == "help") {
        continue;
      }
      bool found = false;
      for (std::string_view k : known) {
        if (key == k) {
          found = true;
          break;
        }
      }
      if (!found) {
        unknown.push_back(key);
      }
    }
    return unknown;
  }

 private:
  std::map<std::string, std::string> flags_;
};

}  // namespace prestore

#endif  // SRC_UTIL_CLI_H_
