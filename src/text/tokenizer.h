// Tokenization primitives used by the feature extractor and by offline
// blocking. Mirrors the preprocessing of the paper's Java Simmetrics setup:
// lower-case and split on non-alphanumeric characters. (The q-gram family's
// padded bigrams are built in text/profile.h.)

#ifndef ALEM_TEXT_TOKENIZER_H_
#define ALEM_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace alem {

// Lower-cases and splits `text` on runs of non-alphanumeric ASCII characters.
// Empty tokens are dropped.
std::vector<std::string> TokenizeWords(std::string_view text);

}  // namespace alem

#endif  // ALEM_TEXT_TOKENIZER_H_
