// Cross-module property sweeps: invariants of the full preprocessing
// pipeline, checked over every dataset profile (parameterized gtest).

#include <gtest/gtest.h>

#include "core/harness.h"
#include "features/feature_schema.h"
#include "sim/similarity.h"
#include "synth/generator.h"
#include "synth/profiles.h"

namespace alem {
namespace {

constexpr uint64_t kDataSeed = 13;
constexpr double kScale = 0.2;

class PipelinePropertyTest : public ::testing::TestWithParam<int> {
 protected:
  static SynthProfile Profile(int index) {
    return AllPublicProfiles()[static_cast<size_t>(index)];
  }

  // One small prepared dataset per profile, cached across tests.
  static const PreparedDataset& Data(int index) {
    static auto& cache = *new std::map<int, PreparedDataset>();
    auto it = cache.find(index);
    if (it == cache.end()) {
      it = cache
               .emplace(index, PrepareDataset({.profile = Profile(index),
                                               .data_seed = kDataSeed,
                                               .scale = kScale}))
               .first;
    }
    return it->second;
  }

  // The records behind Data(index): same profile, seed and scale.
  static const EmDataset& Records(int index) {
    static auto& cache = *new std::map<int, EmDataset>();
    auto it = cache.find(index);
    if (it == cache.end()) {
      it = cache
               .emplace(index,
                        GenerateDataset(Profile(index), kDataSeed, kScale))
               .first;
    }
    return it->second;
  }
};

TEST_P(PipelinePropertyTest, FloatFeaturesWithinUnitInterval) {
  const PreparedDataset& data = Data(GetParam());
  for (size_t row = 0; row < data.float_features.rows(); ++row) {
    for (size_t dim = 0; dim < data.float_features.dims(); ++dim) {
      const float value = data.float_features.At(row, dim);
      ASSERT_GE(value, 0.0f) << data.name << " row " << row << " dim " << dim;
      ASSERT_LE(value, 1.0f) << data.name << " row " << row << " dim " << dim;
    }
  }
}

TEST_P(PipelinePropertyTest, DimensionalityContract) {
  const PreparedDataset& data = Data(GetParam());
  const size_t columns = Records(GetParam()).matched_columns.size();
  EXPECT_EQ(data.float_features.dims(),
            columns * static_cast<size_t>(kNumSimilarityFunctions));
  // Boolean atoms: 3 rule similarity functions x 10 thresholds per column.
  EXPECT_EQ(data.boolean_features.dims(), columns * 30u);
  EXPECT_EQ(data.feature_names.size(), data.float_features.dims());
}

TEST_P(PipelinePropertyTest, TruthAlignsWithPairs) {
  const PreparedDataset& data = Data(GetParam());
  ASSERT_EQ(data.truth.size(), data.pairs.size());
  size_t matches = 0;
  for (size_t i = 0; i < data.pairs.size(); ++i) {
    EXPECT_EQ(data.truth[i],
              Records(GetParam()).truth.IsMatch(data.pairs[i]) ? 1 : 0);
    matches += static_cast<size_t>(data.truth[i]);
  }
  EXPECT_EQ(matches, data.num_matches);
  EXPECT_GT(matches, 0u) << data.name;
  EXPECT_LT(matches, data.pairs.size()) << data.name;
}

// PrepareDataset builds its schema from the profile before generating
// anything; it must be the schema of the generated records.
TEST_P(PipelinePropertyTest, ProfileSchemaMatchesGeneratedSchema) {
  const FeatureSchema from_profile = ProfileSchema(Profile(GetParam()));
  const FeatureSchema from_dataset =
      FeatureSchema::FromDataset(Records(GetParam()));
  // Every other schema property is a function of the column names.
  EXPECT_EQ(from_profile.column_names(), from_dataset.column_names());
}

TEST_P(PipelinePropertyTest, BooleanFeaturesConsistentWithFloat) {
  const PreparedDataset& data = Data(GetParam());
  const BooleanFeaturizer& featurizer = *data.featurizer;
  // Spot-check a sample of rows against the atom definitions.
  for (size_t row = 0; row < data.pairs.size(); row += 17) {
    for (size_t a = 0; a < featurizer.num_atoms(); a += 7) {
      const BooleanAtom& atom = featurizer.atom(a);
      const bool expected = data.float_features.At(row, atom.float_dim) >=
                            atom.threshold - 1e-9;
      ASSERT_EQ(data.boolean_features.At(row, a) >= 0.5f, expected)
          << data.name << " " << atom.description;
    }
  }
}

TEST_P(PipelinePropertyTest, MatchesScoreHigherOnAverage) {
  // Averaged over all features, matching pairs must look more similar than
  // non-matching ones — or no learner could possibly work.
  const PreparedDataset& data = Data(GetParam());
  double match_sum = 0.0, non_sum = 0.0;
  size_t match_count = 0, non_count = 0;
  for (size_t row = 0; row < data.float_features.rows(); ++row) {
    double row_mean = 0.0;
    for (size_t dim = 0; dim < data.float_features.dims(); ++dim) {
      row_mean += data.float_features.At(row, dim);
    }
    row_mean /= static_cast<double>(data.float_features.dims());
    if (data.truth[row] == 1) {
      match_sum += row_mean;
      ++match_count;
    } else {
      non_sum += row_mean;
      ++non_count;
    }
  }
  ASSERT_GT(match_count, 0u);
  ASSERT_GT(non_count, 0u);
  EXPECT_GT(match_sum / match_count, non_sum / non_count) << data.name;
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, PipelinePropertyTest,
                         ::testing::Range(0, 9),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name =
                               AllPublicProfiles()
                                   [static_cast<size_t>(info.param)]
                                       .name;
                           for (char& c : name) {
                             if (!std::isalnum(
                                     static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace alem
