#include <gtest/gtest.h>

#include <cmath>

#include "text/profile.h"
#include "text/soundex.h"
#include "text/tokenizer.h"

namespace alem {
namespace {

// ---- Tokenizer ----

TEST(TokenizerTest, SplitsOnNonAlnumAndLowercases) {
  EXPECT_EQ(TokenizeWords("Sony DSC-W55 Camera!"),
            (std::vector<std::string>{"sony", "dsc", "w55", "camera"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(TokenizeWords("").empty());
  EXPECT_TRUE(TokenizeWords("--- !!! ,,,").empty());
}

TEST(TokenizerTest, DigitsAreTokens) {
  EXPECT_EQ(TokenizeWords("price: 299.99"),
            (std::vector<std::string>{"price", "299", "99"}));
}

// ---- PaddedBigrams ----

TEST(PaddedBigramsTest, PaddedBigrams) {
  const BigramMultiset grams = PaddedBigrams("ab");
  EXPECT_EQ(grams.total(), 3);
  EXPECT_EQ(grams.distinct(), 3u);
  EXPECT_EQ(grams.CountOf(BigramKey('#', 'a')), 1);
  EXPECT_EQ(grams.CountOf(BigramKey('a', 'b')), 1);
  EXPECT_EQ(grams.CountOf(BigramKey('b', '#')), 1);
  EXPECT_EQ(grams.CountOf(BigramKey('#', '#')), 0);
}

TEST(PaddedBigramsTest, LowercasesInput) {
  const BigramMultiset upper = PaddedBigrams("AB");
  const BigramMultiset lower = PaddedBigrams("ab");
  EXPECT_EQ(upper.total(), lower.total());
  EXPECT_EQ(BigramMultiset::SetIntersection(upper, lower), 3);
  EXPECT_EQ(BigramMultiset::L1Distance(upper, lower), 0);
}

TEST(PaddedBigramsTest, EmptyInput) {
  EXPECT_EQ(PaddedBigrams("").total(), 0);
  EXPECT_EQ(PaddedBigrams("").distinct(), 0u);
}

TEST(PaddedBigramsTest, SingleChar) {
  // "a" padded with one '#' on each side -> "#a#": 2 bigrams.
  const BigramMultiset grams = PaddedBigrams("a");
  EXPECT_EQ(grams.total(), 2);
  EXPECT_EQ(grams.CountOf(BigramKey('#', 'a')), 1);
  EXPECT_EQ(grams.CountOf(BigramKey('a', '#')), 1);
}

// ---- CountedMultiset ----

TEST(CountedMultisetTest, CountsAndTotals) {
  CountedMultiset set({"a", "b", "a", "c"});
  EXPECT_EQ(set.total(), 4);
  EXPECT_EQ(set.distinct(), 3u);
  EXPECT_EQ(set.CountOf("a"), 2);
  EXPECT_EQ(set.CountOf("missing"), 0);
}

TEST(CountedMultisetTest, Intersections) {
  CountedMultiset a({"x", "x", "y", "z"});
  CountedMultiset b({"x", "y", "y", "w"});
  EXPECT_EQ(CountedMultiset::MultisetIntersection(a, b), 2);  // x:1, y:1.
  EXPECT_EQ(CountedMultiset::SetIntersection(a, b), 2);       // {x, y}.
}

TEST(CountedMultisetTest, Distances) {
  CountedMultiset a({"x", "x", "y"});
  CountedMultiset b({"x", "z"});
  // Count vectors: a = (x:2, y:1), b = (x:1, z:1).
  EXPECT_EQ(CountedMultiset::L1Distance(a, b), 3);
  EXPECT_DOUBLE_EQ(CountedMultiset::SquaredL2Distance(a, b), 3.0);
  EXPECT_DOUBLE_EQ(CountedMultiset::Dot(a, b), 2.0);
}

TEST(CountedMultisetTest, NormIsEuclidean) {
  CountedMultiset set({"a", "a", "b"});  // (2, 1).
  EXPECT_DOUBLE_EQ(set.norm(), std::sqrt(5.0));
}

// ---- AttributeProfile ----

TEST(AttributeProfileTest, NullForEmptyOrWhitespace) {
  EXPECT_TRUE(AttributeProfile::Build("").is_null);
  EXPECT_TRUE(AttributeProfile::Build("   \t ").is_null);
}

TEST(AttributeProfileTest, PopulatesAllViews) {
  const AttributeProfile profile = AttributeProfile::Build(" Sony W55 ");
  EXPECT_FALSE(profile.is_null);
  EXPECT_EQ(profile.text, "sony w55");
  EXPECT_EQ(profile.tokens, (std::vector<std::string>{"sony", "w55"}));
  EXPECT_EQ(profile.token_counts.total(), 2);
  EXPECT_GT(profile.bigram_counts.total(), 0);
}

// ---- Soundex ----

TEST(SoundexTest, ClassicExamples) {
  EXPECT_EQ(SoundexCode("Robert"), "R163");
  EXPECT_EQ(SoundexCode("Rupert"), "R163");
  EXPECT_EQ(SoundexCode("Tymczak"), "T522");
  EXPECT_EQ(SoundexCode("Honeyman"), "H555");
}

TEST(SoundexTest, CaseInsensitive) {
  EXPECT_EQ(SoundexCode("ROBERT"), SoundexCode("robert"));
}

TEST(SoundexTest, NoAlphabeticCharacters) {
  EXPECT_EQ(SoundexCode("1234"), "");
  EXPECT_EQ(SoundexCode(""), "");
}

TEST(SoundexTest, ShortNamesPadded) { EXPECT_EQ(SoundexCode("Li"), "L000"); }

}  // namespace
}  // namespace alem
