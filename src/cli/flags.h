#ifndef SPACETWIST_CLI_FLAGS_H_
#define SPACETWIST_CLI_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace spacetwist::cli {

/// Minimal command-line parser for the spacetwist_cli tool:
///   tool <command> [--flag value]... [--switch]... [positional]...
/// Flags start with "--"; a flag followed by another flag (or nothing) is a
/// boolean switch. Order is free after the command.
class Flags {
 public:
  /// Parses argv[1..); argv[1] is the command (may be empty).
  static Result<Flags> Parse(int argc, const char* const* argv);

  const std::string& command() const { return command_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const;

  /// Typed access with defaults; InvalidArgument when present but
  /// unparsable.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  Result<double> GetDouble(const std::string& name,
                           double default_value) const;
  Result<int64_t> GetInt(const std::string& name,
                         int64_t default_value) const;
  bool GetBool(const std::string& name) const;

  /// Comma-separated list of doubles ("0,50,100").
  Result<std::vector<double>> GetDoubleList(
      const std::string& name, const std::vector<double>& default_value)
      const;

  /// Names of all flags present.
  std::vector<std::string> FlagNames() const;

  /// InvalidArgument naming the first present flag (in name order) that is
  /// not in `known` — a command's full flag list — so a misspelled or
  /// foreign flag fails loudly instead of being silently ignored.
  Status CheckKnown(const std::vector<std::string>& known) const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;  // "" for switches
  std::vector<std::string> positional_;
};

}  // namespace spacetwist::cli

#endif  // SPACETWIST_CLI_FLAGS_H_
