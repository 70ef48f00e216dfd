// Randomized round-trip property tests for the CSV layer: any table of
// random field contents (including quotes, commas, newlines, unicode bytes)
// must survive Write -> Parse exactly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/csv.h"
#include "util/rng.h"

namespace alem {
namespace {

std::string RandomField(Rng& rng) {
  // Alphabet biased toward CSV-hostile characters.
  static constexpr char kAlphabet[] = {
      'a', 'b', 'c', ' ', ',', '"', '\n', '\r', '\t', '0', '9', '-', '.',
      '\'', ';', '|', '\\', '{', '}', static_cast<char>(0xc3),
      static_cast<char>(0xa9)};
  const size_t length = rng.NextBelow(12);
  std::string field;
  field.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    field.push_back(kAlphabet[rng.NextBelow(std::size(kAlphabet))]);
  }
  return field;
}

class CsvFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CsvFuzzTest, RandomTableRoundTrips) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  const size_t num_rows = 1 + rng.NextBelow(8);
  const size_t num_columns = 1 + rng.NextBelow(6);

  std::vector<std::vector<std::string>> rows(num_rows);
  for (auto& row : rows) {
    row.resize(num_columns);
    for (auto& field : row) field = RandomField(rng);
  }
  // Caveat of the CSV data model itself (not our parser): a trailing row of
  // all-empty fields with arity 1 is indistinguishable from no row. Avoid
  // generating that single ambiguous case.
  if (rows.back().size() == 1 && rows.back()[0].empty()) {
    // GCC 12 false positive: after inlining std::string::assign it reports
    // an overlapping __builtin_memcpy of ~2^63 bytes (GCC bug 105329),
    // which a one-byte assignment to a distinct string cannot do.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
    rows.back()[0] = "x";
#pragma GCC diagnostic pop
  }

  const std::string encoded = WriteCsv(rows);
  const auto decoded = ParseCsv(encoded);
  ASSERT_EQ(decoded.size(), rows.size()) << "doc: " << encoded;
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(decoded[r], rows[r]) << "row " << r << " doc: " << encoded;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest, ::testing::Range(0, 50));

TEST(CsvFuzzTest, ParserNeverCrashesOnRandomBytes) {
  Rng rng(99);
  for (int doc = 0; doc < 200; ++doc) {
    std::string content;
    const size_t length = rng.NextBelow(200);
    for (size_t i = 0; i < length; ++i) {
      content.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    // Must not crash or hang; output shape is unspecified for garbage.
    const auto rows = ParseCsv(content);
    for (const auto& row : rows) {
      EXPECT_GE(row.size(), 1u);
    }
  }
}

}  // namespace
}  // namespace alem
