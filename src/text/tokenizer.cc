#include "text/tokenizer.h"

#include <cctype>

namespace alem {

std::vector<std::string> TokenizeWords(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char raw : text) {
    const unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c) != 0) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

}  // namespace alem
