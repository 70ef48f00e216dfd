// Differential harness for the runtime-dispatched kernel backends
// (src/kernels/). For every backend available on this host, each kernel is
// driven over randomized inputs — seeded RNG, odd lengths, unaligned
// tails, empty and single-row chunks, denormal-adjacent magnitudes — and
// compared against the scalar reference (kernel_scalar.cc).
//
// Equivalence contract (docs/kernels.md): every kernel registered today is
// REORDER-FREE, so the comparisons below assert exact equality — EXPECT_EQ
// on doubles/floats, i.e. 0 ULP. The UlpDistance helper exists so a future
// reassociating backend (e.g. an FMA-tiled GEMV) can be held to a
// documented nonzero ULP bound instead of silently weakening the bitwise
// tests; until such a backend exists, it doubles as a second witness that
// the distance really is zero.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "kernels/backend.h"
#include "ml/linear_svm.h"
#include "ml/neural_net.h"
#include "sim/similarity.h"
#include "util/rng.h"

namespace alem {
namespace {

// Forces a backend for the scope of one test body and restores the
// previously active backend on destruction.
class BackendScope {
 public:
  explicit BackendScope(std::string_view name)
      : previous_(kernels::BackendName()) {
    ok_ = kernels::SetBackend(name, &error_);
  }
  ~BackendScope() { kernels::SetBackend(previous_, nullptr); }
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

 private:
  std::string previous_;
  std::string error_;
  bool ok_ = false;
};

std::vector<std::string> NonScalarBackends() {
  std::vector<std::string> names;
  for (const std::string_view name : kernels::AvailableBackendNames()) {
    if (name != "scalar") names.emplace_back(name);
  }
  return names;
}

// Raw bit pattern; the strongest possible equality (distinguishes -0.0
// from +0.0 and one NaN payload from another).
uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// ULP distance between two doubles: 0 for numerically equal values (so
// +0.0 and -0.0 are distance 0), max() when either is NaN.
uint64_t UlpDistance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<uint64_t>::max();
  }
  auto ordered = [](double v) {
    int64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    // Map the sign-magnitude double ordering onto the integer line.
    return bits < 0 ? std::numeric_limits<int64_t>::min() - bits : bits;
  };
  const int64_t ia = ordered(a);
  const int64_t ib = ordered(b);
  return ia > ib ? static_cast<uint64_t>(ia) - static_cast<uint64_t>(ib)
                 : static_cast<uint64_t>(ib) - static_cast<uint64_t>(ia);
}

TEST(UlpDistanceTest, BehavesAsDocumented) {
  EXPECT_EQ(UlpDistance(1.0, 1.0), 0u);
  EXPECT_EQ(UlpDistance(0.0, -0.0), 0u);
  EXPECT_EQ(UlpDistance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(UlpDistance(-1.0, std::nextafter(-1.0, -2.0)), 1u);
  EXPECT_EQ(UlpDistance(std::nan(""), 1.0),
            std::numeric_limits<uint64_t>::max());
}

// ---- Dispatch semantics ------------------------------------------------

TEST(KernelDispatchTest, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(kernels::BackendAvailable(kernels::Backend::kScalar));
  const auto names = kernels::AvailableBackendNames();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");
}

TEST(KernelDispatchTest, AutoNeverSelectsUnavailableBackend) {
  BackendScope scope("auto");
  ASSERT_TRUE(scope.ok());
  EXPECT_TRUE(kernels::BackendAvailable(kernels::ActiveBackend()));
}

TEST(KernelDispatchTest, EveryAvailableBackendIsSelectable) {
  for (const std::string_view name : kernels::AvailableBackendNames()) {
    BackendScope scope(name);
    EXPECT_TRUE(scope.ok()) << name << ": " << scope.error();
    EXPECT_EQ(kernels::BackendName(), name);
    EXPECT_STREQ(kernels::Active().name, std::string(name).c_str());
  }
}

TEST(KernelDispatchTest, UnknownBackendIsRejected) {
  const std::string before(kernels::BackendName());
  std::string error;
  EXPECT_FALSE(kernels::SetBackend("sse9", &error));
  EXPECT_NE(error.find("sse9"), std::string::npos);
  EXPECT_EQ(kernels::BackendName(), before);  // Active selection unchanged.
}

TEST(KernelDispatchTest, UnavailableBackendIsRejected) {
  if (kernels::BackendAvailable(kernels::Backend::kAvx2)) {
    GTEST_SKIP() << "avx2 is available on this host";
  }
  std::string error;
  EXPECT_FALSE(kernels::SetBackend("avx2", &error));
  EXPECT_NE(error.find("avx2"), std::string::npos);
}

TEST(KernelDispatchTest, BackendNamesRoundTrip) {
  EXPECT_EQ(kernels::BackendToName(kernels::Backend::kScalar), "scalar");
  EXPECT_EQ(kernels::BackendToName(kernels::Backend::kAvx2), "avx2");
}

// ---- Per-kernel randomized differential tests --------------------------
//
// Each test fetches the scalar table once, then replays identical inputs
// through every available non-scalar backend's table and demands exact
// agreement. Inputs deliberately cover empty ranges, single elements,
// sizes straddling the vector widths (8/32 lanes), and misaligned
// pointers (the kernels use unaligned loads; slicing buffers at odd
// offsets would catch any alignment assumption).

const kernels::KernelOps& OpsFor(const std::string& name) {
  // BackendScope flips the active table; grab the pointer while forced.
  BackendScope scope(name);
  EXPECT_TRUE(scope.ok()) << scope.error();
  return kernels::Active();
}

TEST(KernelDifferentialTest, JaroScanMatchesScalar) {
  const kernels::KernelOps& scalar = OpsFor("scalar");
  for (const std::string& backend : NonScalarBackends()) {
    const kernels::KernelOps& ops = OpsFor(backend);
    Rng rng(1234);
    const char alphabet[] = "abcdz";  // Few symbols => many matches.
    for (int round = 0; round < 200; ++round) {
      const size_t m = rng.NextBelow(130);  // 0..129: straddles 32, 64, 96.
      std::string b(m, 'x');
      std::vector<uint8_t> matched(m + 1, 0);  // +1 so m==0 has a pointer.
      for (size_t j = 0; j < m; ++j) {
        b[j] = alphabet[rng.NextBelow(5)];
        matched[j] = rng.NextBernoulli(0.3) ? 1 : 0;
      }
      const char c = alphabet[rng.NextBelow(5)];
      // Random window, including empty (lo == hi) and full-width.
      size_t lo = rng.NextBelow(m + 1);
      size_t hi = rng.NextBelow(m + 1);
      if (lo > hi) std::swap(lo, hi);
      const size_t expected =
          scalar.jaro_scan(b.data(), matched.data(), lo, hi, c);
      const size_t actual = ops.jaro_scan(b.data(), matched.data(), lo, hi, c);
      ASSERT_EQ(actual, expected)
          << backend << " round " << round << " m=" << m << " lo=" << lo
          << " hi=" << hi << " c=" << c;
    }
  }
}

// Values spanning ~600 orders of magnitude, including denormal-adjacent
// magnitudes: any double-rounding or flush-to-zero difference in a backend
// would surface as a ULP gap here.
double RandomMagnitude(Rng& rng) {
  static const double magnitudes[] = {
      0.0,    1e-320, 5e-310, 2.2250738585072014e-308,  // Denormal range.
      1e-30,  1e-3,   0.5,    1.0,
      3.7,    1e3,    1e30,   1e300,
  };
  double v = magnitudes[rng.NextBelow(12)] *
             (0.5 + rng.NextDouble());  // Perturb off the round numbers.
  return rng.NextBernoulli(0.5) ? v : -v;
}

// Same idea within float range (float-denormal-adjacent at 1e-40), so
// double->float conversion of test inputs never overflows.
float RandomFloatMagnitude(Rng& rng) {
  static const double magnitudes[] = {0.0, 1e-40, 1e-30, 1e-3, 0.5,
                                      1.0, 3.7,   1e3,   1e30};
  const double v = magnitudes[rng.NextBelow(9)] * (0.5 + rng.NextDouble());
  return static_cast<float>(rng.NextBernoulli(0.5) ? v : -v);
}

TEST(KernelDifferentialTest, SvmMarginBlockMatchesScalarBitwise) {
  const kernels::KernelOps& scalar = OpsFor("scalar");
  for (const std::string& backend : NonScalarBackends()) {
    const kernels::KernelOps& ops = OpsFor(backend);
    Rng rng(7);
    const size_t dims[] = {0, 1, 3, 7, 8, 9, 16, 17, 63, 64, 65};
    for (const size_t d : dims) {
      for (size_t nrows = 0; nrows <= kernels::kSvmMarginBlock; ++nrows) {
        std::vector<double> w(d + 1);
        for (double& v : w) v = RandomMagnitude(rng);
        // One misaligned backing buffer; rows start at odd offsets.
        std::vector<float> storage(kernels::kSvmMarginBlock * (d + 3));
        for (float& v : storage) v = RandomFloatMagnitude(rng);
        const float* x[kernels::kSvmMarginBlock];
        for (size_t r = 0; r < nrows; ++r) {
          x[r] = storage.data() + r * (d + 3) + (r % 3);
        }
        const double bias = RandomMagnitude(rng);
        std::vector<double> expected(nrows + 1, -1.0);
        std::vector<double> actual(nrows + 1, -2.0);
        scalar.svm_margin_block(w.data(), d, bias, x, nrows, expected.data());
        ops.svm_margin_block(w.data(), d, bias, x, nrows, actual.data());
        for (size_t r = 0; r < nrows; ++r) {
          // Raw-bit equality: extreme magnitudes can overflow to inf/NaN,
          // and even those must propagate identically in every backend.
          ASSERT_EQ(DoubleBits(actual[r]), DoubleBits(expected[r]))
              << backend << " d=" << d << " nrows=" << nrows << " row " << r
              << ": " << actual[r] << " vs " << expected[r];
          if (!std::isnan(expected[r])) {
            ASSERT_EQ(UlpDistance(actual[r], expected[r]), 0u);
          }
        }
      }
    }
  }
}

// Widths straddling the 4-unit / 4- and 16-lane blocks of the NN kernels.
constexpr size_t kNnWidths[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33};

// nrows rows of width `in` at odd offsets into one backing buffer.
template <typename T>
std::vector<const T*> MisalignedRows(std::vector<T>& storage, size_t in,
                                     size_t nrows) {
  std::vector<const T*> rows(nrows + 1, nullptr);
  for (size_t r = 0; r < nrows; ++r) {
    rows[r] = storage.data() + r * (in + 3) + (r % 3);
  }
  return rows;
}

TEST(KernelDifferentialTest, NnForwardMatchesScalarBitwise) {
  const kernels::KernelOps& scalar = OpsFor("scalar");
  for (const std::string& backend : NonScalarBackends()) {
    const kernels::KernelOps& ops = OpsFor(backend);
    Rng rng(11);
    for (const size_t in : kNnWidths) {
      for (const size_t out : kNnWidths) {
        // Every row count of a block, so partial blocks are covered.
        for (size_t nrows = 0; nrows <= kernels::kNnRowBlock; ++nrows) {
          std::vector<double> w(in * out);
          for (double& v : w) v = RandomMagnitude(rng);
          std::vector<double> bias(out);
          for (double& v : bias) v = RandomMagnitude(rng);
          std::vector<float> x32(kernels::kNnRowBlock * (in + 3));
          std::vector<double> x64(x32.size());
          for (size_t k = 0; k < x32.size(); ++k) {
            x32[k] = RandomFloatMagnitude(rng);
            x64[k] = RandomMagnitude(rng);
          }
          const auto rows32 = MisalignedRows(x32, in, nrows);
          const auto rows64 = MisalignedRows(x64, in, nrows);
          std::vector<double> xt(in * kernels::kNnRowBlock);
          std::vector<double> expected(nrows * out), actual(nrows * out);
          scalar.nn_forward_f32(w.data(), bias.data(), in, out, rows32.data(),
                                nrows, xt.data(), expected.data());
          ops.nn_forward_f32(w.data(), bias.data(), in, out, rows32.data(),
                             nrows, xt.data(), actual.data());
          for (size_t k = 0; k < expected.size(); ++k) {
            ASSERT_EQ(DoubleBits(actual[k]), DoubleBits(expected[k]))
                << backend << " f32 in=" << in << " out=" << out
                << " nrows=" << nrows << " z[" << k << "]: " << actual[k]
                << " vs " << expected[k];
          }
          scalar.nn_forward_f64(w.data(), bias.data(), in, out, rows64.data(),
                                nrows, xt.data(), expected.data());
          ops.nn_forward_f64(w.data(), bias.data(), in, out, rows64.data(),
                             nrows, xt.data(), actual.data());
          for (size_t k = 0; k < expected.size(); ++k) {
            ASSERT_EQ(DoubleBits(actual[k]), DoubleBits(expected[k]))
                << backend << " f64 in=" << in << " out=" << out
                << " nrows=" << nrows << " z[" << k << "]: " << actual[k]
                << " vs " << expected[k];
            if (!std::isnan(expected[k])) {
              ASSERT_EQ(UlpDistance(actual[k], expected[k]), 0u);
            }
          }
        }
      }
    }
  }
}

TEST(KernelDifferentialTest, NnBackwardMatchesScalarBitwise) {
  const kernels::KernelOps& scalar = OpsFor("scalar");
  for (const std::string& backend : NonScalarBackends()) {
    const kernels::KernelOps& ops = OpsFor(backend);
    Rng rng(13);
    // Row counts below, at and past one 8-row group of active rows.
    const size_t row_counts[] = {0, 1, 3, 8, 9, 17};
    for (const size_t in : kNnWidths) {
      for (const size_t out : kNnWidths) {
        for (const size_t nrows : row_counts) {
          std::vector<double> w(in * out);
          for (double& v : w) v = RandomMagnitude(rng);
          // Gradients with exact zeros (ReLU and dropout produce them; the
          // kernels skip those rows) and negative zeros.
          std::vector<double> g(nrows * out);
          for (double& v : g) {
            const uint64_t kind = rng.NextBelow(4);
            v = kind == 0 ? 0.0 : kind == 1 ? -0.0 : RandomMagnitude(rng);
          }
          std::vector<float> x32(nrows * (in + 3) + 1);
          std::vector<double> x64(x32.size());
          for (size_t k = 0; k < x32.size(); ++k) {
            x32[k] = RandomFloatMagnitude(rng);
            x64[k] = RandomMagnitude(rng);
          }
          const auto rows32 = MisalignedRows(x32, in, nrows);
          const auto rows64 = MisalignedRows(x64, in, nrows);
          // Prefilled with garbage: both outputs are overwritten.
          std::vector<double> dw_expected(in * out, 7.0);
          std::vector<double> dw_actual(in * out, -7.0);
          std::vector<double> dx_expected(nrows * in + 1, 7.0);
          std::vector<double> dx_actual(nrows * in + 1, -7.0);
          scalar.nn_backward_f32(w.data(), g.data(), in, out, rows32.data(),
                                 nrows, dw_expected.data(), nullptr);
          ops.nn_backward_f32(w.data(), g.data(), in, out, rows32.data(),
                              nrows, dw_actual.data(), nullptr);
          for (size_t k = 0; k < dw_expected.size(); ++k) {
            ASSERT_EQ(DoubleBits(dw_actual[k]), DoubleBits(dw_expected[k]))
                << backend << " f32 in=" << in << " out=" << out
                << " nrows=" << nrows << " dw[" << k << "]";
          }
          scalar.nn_backward_f64(w.data(), g.data(), in, out, rows64.data(),
                                 nrows, dw_expected.data(),
                                 dx_expected.data());
          ops.nn_backward_f64(w.data(), g.data(), in, out, rows64.data(),
                              nrows, dw_actual.data(), dx_actual.data());
          for (size_t k = 0; k < dw_expected.size(); ++k) {
            ASSERT_EQ(DoubleBits(dw_actual[k]), DoubleBits(dw_expected[k]))
                << backend << " f64 in=" << in << " out=" << out
                << " nrows=" << nrows << " dw[" << k << "]";
          }
          for (size_t k = 0; k < nrows * in; ++k) {
            ASSERT_EQ(DoubleBits(dx_actual[k]), DoubleBits(dx_expected[k]))
                << backend << " f64 in=" << in << " out=" << out
                << " nrows=" << nrows << " dx[" << k << "]";
          }
          // Nothing past the last row is written.
          ASSERT_EQ(dx_actual[nrows * in], -7.0);
        }
      }
    }
  }
}

// ---- EvaluateBatch differential + chunk-boundary fuzz ------------------
//
// All 21 similarity functions, run through the public batch entry point
// under every available backend and compared bitwise against the forced-
// scalar result. Pair counts straddle the sim.batch grain (256): 0, 1,
// 255, 256, 257. String material includes empty, single-char, multi-byte
// UTF-8 (odd q-gram tails), and strings at/over the kMaxAlignmentLength
// cap of the edit-based functions.

std::vector<AttributeProfile> FuzzProfiles() {
  std::vector<std::string> samples = {
      "",
      "x",
      "sony camera",
      "canon powershot sx",
      "299.99",
      "kx-200 zoom",
      // Multi-byte UTF-8: q-gram windows land mid-codepoint.
      "caf\xc3\xa9 m\xc3\xbcnchen stra\xc3\x9f",
      "\xe6\x9d\xb1\xe4\xba\xac\xe9\x83\xbd",
      std::string(63, 'a'),
      std::string(64, 'b'),
      // Over the kMaxAlignmentLength=64 cap; edit sims truncate these.
      std::string(65, 'c') + "tail",
      std::string(300, 'd') + " tokens here too",
  };
  std::vector<AttributeProfile> profiles;
  profiles.reserve(samples.size());
  for (const std::string& s : samples) {
    profiles.push_back(AttributeProfile::Build(s));
  }
  return profiles;
}

TEST(KernelBatchDifferentialTest, AllSimilaritiesMatchScalarAtChunkEdges) {
  const std::vector<AttributeProfile> profiles = FuzzProfiles();
  Rng rng(42);
  const size_t pair_counts[] = {0, 1, 255, 256, 257};
  const std::vector<std::string> backends = NonScalarBackends();
  for (const SimilarityFunction* function : AllSimilarityFunctions()) {
    for (const size_t count : pair_counts) {
      std::vector<const AttributeProfile*> left(count);
      std::vector<const AttributeProfile*> right(count);
      for (size_t i = 0; i < count; ++i) {
        left[i] = &profiles[rng.NextBelow(profiles.size())];
        right[i] = &profiles[rng.NextBelow(profiles.size())];
      }
      std::vector<float> reference(count + 1, -1.0f);
      {
        BackendScope scope("scalar");
        ASSERT_TRUE(scope.ok());
        function->EvaluateBatch(left, right, reference.data());
      }
      for (const std::string& backend : backends) {
        BackendScope scope(backend);
        ASSERT_TRUE(scope.ok()) << scope.error();
        std::vector<float> candidate(count + 1, -2.0f);
        function->EvaluateBatch(left, right, candidate.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(candidate[i], reference[i])
              << function->name() << " under " << backend << " pair " << i
              << " count=" << count;
        }
      }
    }
  }
}

// ---- End-to-end learner differential -----------------------------------
//
// Models are trained once (training is scalar regardless of backend), then
// batch inference under every backend must reproduce the scalar per-row
// Margin bit for bit — the same pin ml_batch_test enforces for the batch
// path itself, here extended across backends.

void MakeBlobs(size_t n, size_t dims, uint64_t seed, FeatureMatrix* features,
               std::vector<int>* labels) {
  Rng rng(seed);
  *features = FeatureMatrix(n, dims);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    const double center = positive ? 0.8 : 0.2;
    for (size_t d = 0; d < dims; ++d) {
      const float v = static_cast<float>(center + rng.NextGaussian() * 0.15);
      features->Set(i, d, rng.NextBernoulli(0.1) ? 0.0f : v);
    }
    (*labels)[i] = positive ? 1 : 0;
  }
}

TEST(KernelLearnerDifferentialTest, SvmMarginBatchBitwiseAcrossBackends) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeBlobs(300, 13, 5, &features, &labels);  // 13 dims: vector tail of 5.
  LinearSvm svm(LinearSvmConfig{});
  svm.Fit(features, labels);
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0u);

  for (const std::string_view backend : kernels::AvailableBackendNames()) {
    BackendScope scope(backend);
    ASSERT_TRUE(scope.ok()) << scope.error();
    std::vector<double> batch(rows.size());
    svm.MarginBatch(features, rows, batch.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(batch[i], svm.Margin(features.Row(rows[i])))
          << backend << " row " << i;
    }
  }
}

TEST(KernelLearnerDifferentialTest, NeuralNetMarginBatchBitwiseAcrossBackends) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeBlobs(200, 9, 6, &features, &labels);
  for (const bool batch_norm : {false, true}) {
    NeuralNetConfig config;
    config.epochs = 10;
    config.hidden_sizes = {17, 5};  // Unit tails for the 4-wide kernels.
    config.use_batch_norm = batch_norm;
    NeuralNetwork net(config);
    net.Fit(features, labels);
    std::vector<size_t> rows(features.rows());
    std::iota(rows.begin(), rows.end(), 0u);

    for (const std::string_view backend : kernels::AvailableBackendNames()) {
      BackendScope scope(backend);
      ASSERT_TRUE(scope.ok()) << scope.error();
      std::vector<double> batch(rows.size());
      net.MarginBatch(features, rows, batch.data());
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(batch[i], net.Margin(features.Row(rows[i])))
            << backend << " bn=" << batch_norm << " row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace alem
