// Portable scalar kernels — the reference implementations every other
// backend is differentially tested against (tests/kernel_backend_test.cc).
// These are extractions of the inner loops that previously lived inline in
// sim/edit_based.cc, ml/linear_svm.cc, and ml/neural_net.cc; changing any
// arithmetic here changes the framework's golden baselines.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "kernels/kernels_internal.h"

namespace alem {
namespace kernels {
namespace internal {
namespace {

size_t JaroScanScalar(const char* b, const uint8_t* matched, size_t lo,
                      size_t hi, char c) {
  for (size_t j = lo; j < hi; ++j) {
    if (matched[j] == 0 && b[j] == c) return j;
  }
  return hi;
}

// ---- alignment scores --------------------------------------------------
//
// Integer transcriptions of the double DPs the alignment similarities
// (sim/edit_based.cc) were defined by, with every score multiplied by the
// kernel's scale: each int here is exactly 1x / 4x the double the old loop
// held in the same cell, so the similarity layer's final division yields
// the same bits.

int NwScoreScalar(const char* a, size_t n, const char* b, size_t m) {
  constexpr int kGap = -1;
  int rows[2][kMaxDpLength + 1];
  int* previous = rows[0];
  int* current = rows[1];
  for (size_t j = 0; j <= m; ++j) previous[j] = kGap * static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    current[0] = kGap * static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int match = a[i - 1] == b[j - 1] ? 1 : -1;
      current[j] = std::max({previous[j - 1] + match, previous[j] + kGap,
                             current[j - 1] + kGap});
    }
    std::swap(previous, current);
  }
  return previous[m];
}

int SwScoreX4Scalar(const char* a, size_t n, const char* b, size_t m) {
  constexpr int kGap = -2;  // -0.5 x 4
  int rows[2][kMaxDpLength + 1] = {};
  int* previous = rows[0];
  int* current = rows[1];
  int best = 0;
  for (size_t i = 1; i <= n; ++i) {
    current[0] = 0;
    for (size_t j = 1; j <= m; ++j) {
      const int match = a[i - 1] == b[j - 1] ? 4 : -4;
      current[j] = std::max({0, previous[j - 1] + match, previous[j] + kGap,
                             current[j - 1] + kGap});
      best = std::max(best, current[j]);
    }
    std::swap(previous, current);
  }
  return best;
}

int SwgScoreX4Scalar(const char* a, size_t n, const char* b, size_t m) {
  constexpr int kGapOpen = -2;    // -0.5 x 4
  constexpr int kGapExtend = -1;  // -0.25 x 4
  // Stands in for the double DP's -1e30: every E/F value it seeds loses
  // the max to an H-derived value >= -2 in the same step.
  constexpr int kNegInf = -(1 << 14);
  int h_rows[2][kMaxDpLength + 1] = {};
  int f_rows[2][kMaxDpLength + 1];
  std::fill(&f_rows[0][0], &f_rows[0][0] + 2 * (kMaxDpLength + 1), kNegInf);
  int* h_prev = h_rows[0];
  int* h_cur = h_rows[1];
  int* f_prev = f_rows[0];
  int* f_cur = f_rows[1];
  int best = 0;
  for (size_t i = 1; i <= n; ++i) {
    int e = kNegInf;
    h_cur[0] = 0;
    for (size_t j = 1; j <= m; ++j) {
      e = std::max(e + kGapExtend, h_cur[j - 1] + kGapOpen);
      f_cur[j] = std::max(f_prev[j] + kGapExtend, h_prev[j] + kGapOpen);
      const int match = a[i - 1] == b[j - 1] ? 4 : -4;
      h_cur[j] = std::max({0, h_prev[j - 1] + match, e, f_cur[j]});
      best = std::max(best, h_cur[j]);
    }
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
  }
  return best;
}

void SvmMarginBlockScalar(const double* w, size_t d, double bias,
                          const float* const* x, size_t nrows, double* out) {
  // Register-blocked GEMV: walk the weight vector once and feed every
  // row's accumulator from the same loaded weight. Each accumulator starts
  // at bias and sees w[j] * x[j] in ascending j — the scalar Margin()
  // order, so the sums are bitwise-identical to per-row evaluation.
  double acc[kSvmMarginBlock];
  for (size_t r = 0; r < nrows; ++r) acc[r] = bias;
  for (size_t j = 0; j < d; ++j) {
    const double wj = w[j];
    for (size_t r = 0; r < nrows; ++r) acc[r] += wj * x[r][j];
  }
  for (size_t r = 0; r < nrows; ++r) out[r] = acc[r];
}

template <typename In>
void NnForwardScalar(const double* w, const double* bias, size_t in,
                     size_t out, const In* const* x, size_t nrows,
                     double* /*xt*/, double* z) {
  // Register-blocked like the SVM GEMV: one pass over each unit's weights
  // feeds every row's accumulator, and each accumulator still sees bias,
  // then w[j] * x[j] in ascending j.
  double acc[kNnRowBlock];
  for (size_t o = 0; o < out; ++o) {
    const double* wo = w + o * in;
    for (size_t r = 0; r < nrows; ++r) acc[r] = bias[o];
    for (size_t j = 0; j < in; ++j) {
      const double wj = wo[j];
      for (size_t r = 0; r < nrows; ++r) acc[r] += wj * x[r][j];
    }
    for (size_t r = 0; r < nrows; ++r) z[r * out + o] = acc[r];
  }
}

template <typename In>
void NnBackwardScalar(const double* w, const double* g, size_t in,
                      size_t out, const In* const* x, size_t nrows,
                      double* dw, double* dx) {
  if (dx != nullptr) std::fill(dx, dx + nrows * in, 0.0);
  for (size_t o = 0; o < out; ++o) {
    const double* wo = w + o * in;
    double* dwo = dw + o * in;
    std::fill(dwo, dwo + in, 0.0);
    for (size_t r = 0; r < nrows; ++r) {
      const double gr = g[r * out + o];
      if (gr == 0.0) continue;
      const In* xr = x[r];
      for (size_t j = 0; j < in; ++j) dwo[j] += gr * xr[j];
      if (dx == nullptr) continue;
      double* dxr = dx + r * in;
      for (size_t j = 0; j < in; ++j) dxr[j] += gr * wo[j];
    }
  }
}

}  // namespace

const KernelOps kScalarOps = {
    /*name=*/"scalar",
    /*jaro_scan=*/JaroScanScalar,
    /*nw_score=*/NwScoreScalar,
    /*sw_score_x4=*/SwScoreX4Scalar,
    /*swg_score_x4=*/SwgScoreX4Scalar,
    /*svm_margin_block=*/SvmMarginBlockScalar,
    /*nn_forward_f32=*/NnForwardScalar<float>,
    /*nn_forward_f64=*/NnForwardScalar<double>,
    /*nn_backward_f32=*/NnBackwardScalar<float>,
    /*nn_backward_f64=*/NnBackwardScalar<double>,
};

}  // namespace internal
}  // namespace kernels
}  // namespace alem
