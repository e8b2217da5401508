// Tiny command-line flag parser used by examples and bench binaries.
//
// Supports `--name value` and `--name=value` forms plus boolean switches.
// Unrecognized google-benchmark flags (--benchmark_*) are passed through so
// bench binaries can mix figure-table printing with timing runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tgroom {

class CliArgs {
 public:
  /// Parses argv; flags must start with `--`.  Positional arguments are
  /// collected in order.  `--benchmark_*` flags are recorded but also kept
  /// in `passthrough()` for benchmark::Initialize.
  CliArgs(int argc, const char* const* argv);

  /// Same, for a program with a usage text: when argv holds `--help`,
  /// prints `usage` to stdout and exits 0 before the program does any
  /// work (the bench binaries would otherwise run and write their result
  /// files into the working directory).
  CliArgs(int argc, const char* const* argv, const char* usage);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Parse a comma-separated integer list flag, e.g. --k=4,8,16.
  std::vector<int> get_int_list(const std::string& name,
                                std::vector<int> fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace tgroom
