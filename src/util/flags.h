// Minimal command-line flag parsing for the CLI tools.
//
// Supports --name=value, --name value, bare boolean --name, and positional
// arguments. No registration step: callers query by name with a default.
// The only declaration is the tool's boolean flags: one of those never takes
// the next token as its value, so `check --exact-curve A.json B.json` keeps
// A.json positional.

#ifndef ALEM_UTIL_FLAGS_H_
#define ALEM_UTIL_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace alem {

class FlagParser {
 public:
  // `booleans` names the flags that take no "--name value" form (they still
  // accept "--name=false").
  FlagParser(int argc, const char* const* argv,
             std::initializer_list<std::string_view> booleans = {});

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  // A bare flag (no value) counts as true; "false"/"0" count as false.
  bool GetBool(const std::string& name, bool default_value) const;

  // Names of the given flags that are not in `known`, sorted. A tool whose
  // flags gate something rejects these instead of ignoring a misspelling.
  std::vector<std::string> Unknown(
      std::initializer_list<std::string_view> known) const;

  // Non-flag arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace alem

#endif  // ALEM_UTIL_FLAGS_H_
