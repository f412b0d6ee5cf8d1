#include "util/cli.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/require.hpp"
#include "util/strings.hpp"

namespace cawo {

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& knownFlags,
                 const std::string& context) {
  // A typo'd flag must not just name itself — it lists what *would* have
  // been accepted, per surface/subcommand.
  const auto validList = [&knownFlags] {
    std::string out;
    for (const std::string& flag : knownFlags) {
      if (!out.empty()) out += ", ";
      out += "--" + flag;
    }
    return out;
  };
  const std::string where = context.empty() ? "" : " for " + context;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    CAWO_REQUIRE(startsWith(arg, "--"),
                 "unexpected positional argument" + where + ": " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    std::string value = "1"; // a boolean flag unless a value follows
    if (eq != std::string::npos)
      value = arg.substr(eq + 1);
    else if (i + 1 < argc && !startsWith(argv[i + 1], "--"))
      value = argv[++i];
    CAWO_REQUIRE(std::find(knownFlags.begin(), knownFlags.end(), name) !=
                     knownFlags.end(),
                 "unknown flag --" + name + where + " (valid: " +
                     validList() + ")");
    values_[name] = value;
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::int64_t CliArgs::getInt(const std::string& name,
                             std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double CliArgs::getDouble(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

std::string CliArgs::getString(const std::string& name,
                               const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second;
}

unsigned threadsFromArgs(const CliArgs& args, const std::string& name,
                         unsigned fallback) {
  const std::int64_t value =
      args.getInt(name, static_cast<std::int64_t>(fallback));
  CAWO_REQUIRE(value >= 0, "flag --" + name +
                               " must be >= 0 (0 = all hardware threads), "
                               "got " + std::to_string(value));
  return static_cast<unsigned>(value);
}

} // namespace cawo
