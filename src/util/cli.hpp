// Small command-line flag parser for the example and bench executables.
//
// Supports `--name value`, `--name=value`, and boolean `--name` flags.
// Unknown flags are an error (typos should not silently change experiment
// parameters); positional arguments are collected in order.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace chainckpt::util {

class CliParser {
 public:
  /// Registers a string option with a default.  Call before parse().
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Registers a boolean switch (defaults to false).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv; throws std::invalid_argument on unknown/malformed flags.
  /// Recognizes --help by setting help_requested().
  void parse(int argc, const char* const* argv);

  bool help_requested() const noexcept { return help_; }
  std::string help_text(const std::string& program_summary) const;

  std::string get(const std::string& name) const;
  bool get_flag(const std::string& name) const;
  /// Throw std::invalid_argument naming the flag unless the whole value
  /// parses.
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  struct Option {
    std::string value;
    std::string help;
    bool is_flag = false;
  };
  std::map<std::string, Option> options_;
  std::vector<std::string> positional_;
  bool help_ = false;
};

}  // namespace chainckpt::util
