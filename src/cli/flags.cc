#include "cli/flags.h"

#include <algorithm>
#include <cstdlib>

#include "common/strings.h"

namespace spacetwist::cli {

Result<Flags> Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    flags.command_ = argv[i];
    ++i;
  }
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string name = arg.substr(2);
      if (name.empty()) {
        return Status::InvalidArgument("bare '--' is not a flag");
      }
      // "--name=value" form.
      const size_t eq = name.find('=');
      if (eq != std::string::npos) {
        flags.values_[name.substr(0, eq)] = name.substr(eq + 1);
        continue;
      }
      // "--name value" unless the next token is another flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags.values_[name] = argv[i + 1];
        ++i;
      } else {
        flags.values_[name] = "";
      }
    } else {
      flags.positional_.push_back(arg);
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

Result<double> Flags::GetDouble(const std::string& name,
                                double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("--%s expects a number, got '%s'", name.c_str(),
                  it->second.c_str()));
  }
  return value;
}

Result<int64_t> Flags::GetInt(const std::string& name,
                              int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("--%s expects an integer, got '%s'", name.c_str(),
                  it->second.c_str()));
  }
  return static_cast<int64_t>(value);
}

bool Flags::GetBool(const std::string& name) const { return Has(name); }

Result<std::vector<double>> Flags::GetDoubleList(
    const std::string& name, const std::vector<double>& default_value)
    const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::vector<double> out;
  const std::string& text = it->second;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(begin, end - begin);
    char* parse_end = nullptr;
    const double value = std::strtod(token.c_str(), &parse_end);
    if (token.empty() || parse_end == token.c_str() || *parse_end != '\0') {
      return Status::InvalidArgument(
          StrFormat("--%s: bad list element '%s'", name.c_str(),
                    token.c_str()));
    }
    out.push_back(value);
    begin = end + 1;
  }
  return out;
}

std::vector<std::string> Flags::FlagNames() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

Status Flags::CheckKnown(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument(
          StrFormat("unknown flag --%s for %s", name.c_str(),
                    command_.empty() ? "this command" : command_.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace spacetwist::cli
