#include "util/flags.h"

#include <algorithm>
#include <cstdlib>

#include "util/string_util.h"

namespace alem {

FlagParser::FlagParser(int argc, const char* const* argv,
                       std::initializer_list<std::string_view> booleans) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t equals = body.find('=');
    if (equals != std::string::npos) {
      values_[body.substr(0, equals)] = body.substr(equals + 1);
      continue;
    }
    // "--name value" when the next token is not a flag and the flag is not
    // a declared boolean; bare "--name" otherwise.
    const bool boolean =
        std::find(booleans.begin(), booleans.end(), body) != booleans.end();
    if (!boolean && i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[body] = argv[i + 1];
      ++i;
    } else {
      values_[body] = "";
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return default_value;
  return std::atoll(it->second.c_str());
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return default_value;
  return std::atof(it->second.c_str());
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  if (it->second.empty()) return true;  // Bare flag.
  return it->second != "false" && it->second != "0";
}

std::vector<std::string> FlagParser::Unknown(
    std::initializer_list<std::string_view> known) const {
  std::vector<std::string> unknown;
  for (const auto& entry : values_) {
    if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
      unknown.push_back(entry.first);
    }
  }
  return unknown;
}

}  // namespace alem
