#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim/edit_based.h"
#include "sim/qgram_based.h"
#include "sim/similarity.h"
#include "sim/token_based.h"

namespace alem {
namespace {

AttributeProfile P(const std::string& s) { return AttributeProfile::Build(s); }

double Sim(const SimilarityFunction& f, const std::string& a,
           const std::string& b) {
  return f.Similarity(P(a), P(b));
}

// ---- Registry ----

TEST(RegistryTest, ExactlyTwentyOneFunctions) {
  EXPECT_EQ(AllSimilarityFunctions().size(),
            static_cast<size_t>(kNumSimilarityFunctions));
}

TEST(RegistryTest, NamesAreUniqueAndLookupWorks) {
  const auto& functions = AllSimilarityFunctions();
  for (size_t i = 0; i < functions.size(); ++i) {
    EXPECT_EQ(SimilarityIndexByName(functions[i]->name()),
              static_cast<int>(i));
  }
  EXPECT_EQ(SimilarityIndexByName("NoSuchFunction"), -1);
}

TEST(RegistryTest, RuleFunctionsAreEqualityJaroWinklerJaccard) {
  const std::vector<int>& indices = RuleSimilarityIndices();
  ASSERT_EQ(indices.size(), 3u);
  EXPECT_EQ(AllSimilarityFunctions()[indices[0]]->name(), "Identity");
  EXPECT_EQ(AllSimilarityFunctions()[indices[1]]->name(), "JaroWinkler");
  EXPECT_EQ(AllSimilarityFunctions()[indices[2]]->name(), "Jaccard");
}

// ---- Parameterized properties over all 21 functions ----

class SimilarityPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  const SimilarityFunction& function() const {
    return *AllSimilarityFunctions()[static_cast<size_t>(GetParam())];
  }
};

TEST_P(SimilarityPropertyTest, IdenticalStringsScoreOne) {
  for (const char* s :
       {"sony", "digital camera dsc w55", "a", "299.99", "kx-200 zoom"}) {
    EXPECT_NEAR(Sim(function(), s, s), 1.0, 1e-9)
        << function().name() << " on '" << s << "'";
  }
}

TEST_P(SimilarityPropertyTest, RangeIsZeroOne) {
  const std::vector<std::string> samples = {
      "sony camera", "canon powershot", "x", "aaaa bbbb cccc", "42",
      "totally unrelated text here", "sony", "sny camra", ""};
  for (const auto& a : samples) {
    for (const auto& b : samples) {
      const double sim = Sim(function(), a, b);
      EXPECT_GE(sim, 0.0) << function().name();
      EXPECT_LE(sim, 1.0) << function().name();
    }
  }
}

TEST_P(SimilarityPropertyTest, BatchMatchesScalarBitwise) {
  const std::vector<std::string> samples = {
      "sony camera", "canon powershot", "x",  "aaaa bbbb cccc",
      "42",          "sny camra",       "",   "digital camera dsc w55",
      "kx-200 zoom", "299.99",          "sony"};
  std::vector<AttributeProfile> profiles;
  profiles.reserve(samples.size());
  for (const auto& s : samples) profiles.push_back(P(s));

  // Cross product, repeated past the batch chunk size (256) so EvaluateBatch
  // splits the work across multiple ParallelFor chunks.
  std::vector<const AttributeProfile*> left;
  std::vector<const AttributeProfile*> right;
  while (left.size() < 600) {
    for (const auto& a : profiles) {
      for (const auto& b : profiles) {
        left.push_back(&a);
        right.push_back(&b);
      }
    }
  }
  std::vector<float> batch(left.size(), -1.0f);
  function().EvaluateBatch(left, right, batch.data());
  for (size_t i = 0; i < left.size(); ++i) {
    const float scalar =
        static_cast<float>(function().Similarity(*left[i], *right[i]));
    EXPECT_EQ(batch[i], scalar)
        << function().name() << " diverges at pair " << i;
  }
}

TEST_P(SimilarityPropertyTest, Symmetric) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"sony camera", "canon camera"},
      {"abcd", "abdc"},
      {"digital zoom lens", "zoom lens kit pro"},
      {"a", "abcdef"},
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_NEAR(Sim(function(), a, b), Sim(function(), b, a), 1e-9)
        << function().name();
  }
}

TEST_P(SimilarityPropertyTest, NullProfileScoresZero) {
  EXPECT_EQ(function().Similarity(P(""), P("something")), 0.0);
  EXPECT_EQ(function().Similarity(P("something"), P("")), 0.0);
  EXPECT_EQ(function().Similarity(P(""), P("")), 0.0);
}

TEST_P(SimilarityPropertyTest, SimilarBeatsDissimilar) {
  // Every function should rank a near-duplicate above unrelated text.
  // Identity is the degenerate exception: both pairs score 0 because the
  // strings are not exactly equal.
  const double near = Sim(function(), "sony cybershot dsc w55 camera",
                          "sony cyber-shot dsc-w55 camera");
  const double far = Sim(function(), "sony cybershot dsc w55 camera",
                         "leather office chair brown");
  if (function().name() == "Identity") {
    EXPECT_GE(near, far);
  } else {
    EXPECT_GT(near, far) << function().name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctions, SimilarityPropertyTest,
    ::testing::Range(0, kNumSimilarityFunctions),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(
          AllSimilarityFunctions()[static_cast<size_t>(info.param)]->name());
    });

// ---- Specific function values ----

TEST(EditBasedTest, LevenshteinDistanceValues) {
  using internal_edit::LevenshteinDistance;
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0);
}

TEST(EditBasedTest, LevenshteinSimilarityNormalized) {
  LevenshteinSimilarity f;
  EXPECT_NEAR(Sim(f, "kitten", "sitting"), 1.0 - 3.0 / 7.0, 1e-9);
}

TEST(EditBasedTest, DamerauCountsTranspositionAsOne) {
  DamerauLevenshteinSimilarity damerau;
  LevenshteinSimilarity levenshtein;
  // "abcd" -> "abdc" is 1 transposition (Damerau) but 2 edits (Levenshtein).
  EXPECT_NEAR(Sim(damerau, "abcd", "abdc"), 0.75, 1e-9);
  EXPECT_NEAR(Sim(levenshtein, "abcd", "abdc"), 0.5, 1e-9);
}

TEST(EditBasedTest, JaroKnownValue) {
  using internal_edit::JaroRaw;
  EXPECT_NEAR(JaroRaw("martha", "marhta"), 0.9444444, 1e-6);
  EXPECT_NEAR(JaroRaw("dixon", "dicksonx"), 0.7666667, 1e-6);
  EXPECT_EQ(JaroRaw("abc", "xyz"), 0.0);
}

TEST(EditBasedTest, JaroWinklerBoostsSharedPrefix) {
  using internal_edit::JaroRaw;
  using internal_edit::JaroWinklerRaw;
  EXPECT_GT(JaroWinklerRaw("martha", "marhta"), JaroRaw("martha", "marhta"));
  EXPECT_NEAR(JaroWinklerRaw("martha", "marhta"), 0.9611111, 1e-6);
}

TEST(EditBasedTest, SmithWatermanFindsLocalMatch) {
  SmithWatermanSimilarity f;
  // "w55" embedded in a longer string aligns perfectly.
  EXPECT_NEAR(Sim(f, "w55", "camera w55 zoom"), 1.0, 1e-9);
}

TEST(EditBasedTest, LongestCommonSubstring) {
  LongestCommonSubstringSimilarity f;
  // "abcdef" vs "zzabcq": longest common substring "abc" (3) / max len 6.
  EXPECT_NEAR(Sim(f, "abcdef", "zzabcq"), 0.5, 1e-9);
}

TEST(EditBasedTest, LongestCommonSubsequence) {
  LongestCommonSubsequenceSimilarity f;
  // lcs("abcde", "ace") = 3 -> 2*3/(5+3).
  EXPECT_NEAR(Sim(f, "abcde", "ace"), 0.75, 1e-9);
}

TEST(EditBasedTest, NeedlemanWunschPerfectAndDisjoint) {
  NeedlemanWunschSimilarity f;
  EXPECT_NEAR(Sim(f, "abcd", "abcd"), 1.0, 1e-9);
  EXPECT_LT(Sim(f, "aaaa", "zzzz"), 0.3);
}

TEST(TokenBasedTest, JaccardValues) {
  JaccardTokenSimilarity f;
  // {a, b, c} vs {b, c, d}: 2 / 4.
  EXPECT_NEAR(Sim(f, "a b c", "b c d"), 0.5, 1e-9);
  EXPECT_NEAR(Sim(f, "a b", "a b"), 1.0, 1e-9);
  EXPECT_EQ(Sim(f, "a b", "c d"), 0.0);
}

TEST(TokenBasedTest, DiceValues) {
  DiceTokenSimilarity f;
  EXPECT_NEAR(Sim(f, "a b c", "b c d"), 2.0 * 2 / 6, 1e-9);
}

TEST(TokenBasedTest, OverlapCoefficientUsesMinSize) {
  OverlapCoefficientSimilarity f;
  // {a} subset of {a, b, c, d} -> overlap 1.0.
  EXPECT_NEAR(Sim(f, "a", "a b c d"), 1.0, 1e-9);
}

TEST(TokenBasedTest, MatchingCoefficientUsesMaxSize) {
  MatchingCoefficientSimilarity f;
  EXPECT_NEAR(Sim(f, "a", "a b c d"), 0.25, 1e-9);
}

TEST(TokenBasedTest, CosineTokensValue) {
  CosineTokenSimilarity f;
  // |∩|=1, sqrt(1*4) = 2 -> 0.5.
  EXPECT_NEAR(Sim(f, "a", "a b c d"), 0.5, 1e-9);
}

TEST(TokenBasedTest, BlockDistanceValue) {
  BlockDistanceSimilarity f;
  // counts: (a,b) vs (a,c): L1 = 2, totals = 4 -> 1 - 0.5.
  EXPECT_NEAR(Sim(f, "a b", "a c"), 0.5, 1e-9);
}

TEST(TokenBasedTest, MongeElkanForgivesTokenTypos) {
  MongeElkanSimilarity f;
  const double sim = Sim(f, "sony camera", "sonny camera");
  EXPECT_GT(sim, 0.9);
}

TEST(QGramBasedTest, QGramDisjoint) {
  QGramSimilarity f;
  EXPECT_LT(Sim(f, "aaaa", "zzzz"), 0.01);
}

TEST(QGramBasedTest, SimonWhiteSharedBigrams) {
  SimonWhiteSimilarity f;
  const double sim = Sim(f, "healed", "sealed");
  EXPECT_GT(sim, 0.7);  // Classic Simon White example pair.
}

TEST(QGramBasedTest, CosineQGramMatchesManualValue) {
  CosineQGramSimilarity f;
  const double sim = Sim(f, "ab", "ab");
  EXPECT_NEAR(sim, 1.0, 1e-9);
}

TEST(EditBasedTest, LongInputsAreCappedNotCrashing) {
  const std::string long_a(5000, 'a');
  const std::string long_b(5000, 'b');
  for (const SimilarityFunction* f : AllSimilarityFunctions()) {
    const double sim = f->Similarity(P(long_a), P(long_b));
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0);
  }
}

}  // namespace
}  // namespace alem
