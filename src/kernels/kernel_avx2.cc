// AVX2 kernels. This translation unit is the only one compiled with
// -mavx2 (see src/kernels/CMakeLists.txt); nothing here may be executed
// unless __builtin_cpu_supports("avx2") passed in backend.cc.
//
// Every kernel below is REORDER-FREE with respect to the scalar reference
// (kernel_scalar.cc): the integer kernels compute the same exact values,
// and the floating-point kernels vectorize across independent accumulators
// (rows for the SVM GEMV and the NN forward pass, input positions for the
// NN backward pass) so each accumulator still sees its terms in the scalar
// order with one rounded multiply and one rounded add per term. The TU is additionally built with -ffp-contract=off
// (and WITHOUT -mfma) so the compiler cannot fuse that multiply-add pair
// into a single differently-rounded FMA. Net effect: bitwise-identical
// outputs, verified by tests/kernel_backend_test.cc and the per-backend
// golden-baseline replay in report_gate.sh stage 7.

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "kernels/kernels_internal.h"

namespace alem {
namespace kernels {
namespace internal {
namespace {

// ---- jaro_scan ---------------------------------------------------------
//
// First-match scan: 32 candidate positions per step; a byte qualifies when
// b[j] == c AND matched[j] == 0. movemask + countr_zero picks the lowest
// qualifying index, which is exactly the scalar loop's first hit.

size_t JaroScanAvx2(const char* b, const uint8_t* matched, size_t lo,
                    size_t hi, char c) {
  const __m256i needle = _mm256_set1_epi8(c);
  const __m256i zero = _mm256_setzero_si256();
  size_t j = lo;
  for (; j + 32 <= hi; j += 32) {
    const __m256i text =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i used =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(matched + j));
    const __m256i hit = _mm256_and_si256(_mm256_cmpeq_epi8(text, needle),
                                         _mm256_cmpeq_epi8(used, zero));
    const uint32_t mask =
        static_cast<uint32_t>(_mm256_movemask_epi8(hit));
    if (mask != 0) {
      return j + static_cast<size_t>(__builtin_ctz(mask));
    }
  }
  for (; j < hi; ++j) {
    if (matched[j] == 0 && b[j] == c) return j;
  }
  return hi;
}

// ---- nw_score / sw_score_x4 / swg_score_x4 -----------------------------
//
// Anti-diagonal wavefront in int16 lanes. Every cell (i, j) on diagonal
// d = i + j depends only on diagonals d-1 and d-2, so 16 rows of one
// diagonal update in one instruction. A diagonal is four vectors indexed
// by row: rows 1..16, 17..32, 33..48, 49..64. Cell (i, j)'s predecessors
//   H[i-1][j-1] = row i-1 of d-2,  H[i-1][j] = row i-1 of d-1,
//   H[i][j-1]   = row i   of d-1,
// and likewise E (row i of d-1) and F (row i-1 of d-1) for Gotoh, are the
// same vectors or the same vectors shifted up one row (ShiftRows), with
// the i = 0 border shifted in from below. b is stored reversed so that
// b[j-1] = b[d-i-1] is one contiguous load per vector.
//
// Each diagonal computes the vectors holding its matrix cells plus the
// one holding the j = 0 border cell (d, 0), which is blended in. The other
// lanes compute throwaway values that no matrix cell reads: a cell's
// predecessors are matrix or border cells. Padding characters differ from
// every byte and from each other, so a throwaway lane only ever scores a
// mismatch; with every score term other than a match negative, no lane can
// exceed the best matrix cell (or 0), and the local maximum may take all
// lanes. All values stay within a few hundred of zero (scores are bounded
// by 4 * 2 * 64; the -2^14 sentinel only ever loses a max) and the adds
// saturate besides, so 16-bit lanes compute the scalar kernels' ints
// exactly.

enum class Alignment { kGlobal, kLocal, kLocalAffine };

constexpr int kRowsPerVector = 16;
constexpr int kDiagVectors = static_cast<int>(kMaxDpLength) / kRowsPerVector;
constexpr int16_t kNegInf16 = -(1 << 14);

// Rows shifted up by one: lane k of the result is lane k-1 of `rows`, and
// lane 0 is lane 15 of `below` (the 16 rows under them).
inline __m256i ShiftRows(__m256i rows, __m256i below) {
  return _mm256_alignr_epi8(rows, _mm256_permute2x128_si256(below, rows, 0x21),
                            14);
}

template <Alignment kKind>
int AlignAvx2(const char* a, size_t n, const char* b, size_t m) {
  constexpr bool kLocal = kKind != Alignment::kGlobal;
  if (n == 0 || m == 0) return kLocal ? 0 : -static_cast<int>(n + m);
  // Scores in the scalar kernels' units (nw unscaled, sw/swg times 4).
  constexpr int16_t kMatch = kLocal ? 4 : 1;
  constexpr int16_t kGap = kLocal ? -2 : -1;  // Linear gap / Gotoh open.
  constexpr int16_t kExtend = -1;             // Gotoh extend.
  // H on the borders i = 0 and j = 0: 0 for local alignment, -k at
  // distance k from the origin for global.
  auto border = [](int k) {
    return _mm256_set1_epi16(kLocal ? 0 : static_cast<int16_t>(-k));
  };

  const __m256i zero = _mm256_setzero_si256();
  const __m256i neg_inf = _mm256_set1_epi16(kNegInf16);
  __m256i h[3][kDiagVectors];
  __m256i e[2][kDiagVectors];
  __m256i f[2][kDiagVectors];
  for (int v = 0; v < kDiagVectors; ++v) {
    h[0][v] = h[1][v] = h[2][v] = zero;
    e[0][v] = e[1][v] = f[0][v] = f[1][v] = neg_inf;
  }
  // row_char: a[i-1] at row i. rev_b: b[m-1-t] at kRevBase + t; a vector's
  // reads reach t = -15 .. m + 14. Bytes load as 0..255, padding as 256
  // (rows) and 257 (b).
  constexpr int kRevBase = kRowsPerVector;
  constexpr int kRevSlots = kRevBase + static_cast<int>(kMaxDpLength) +
                            kRowsPerVector;
  alignas(32) int16_t row_char[kMaxDpLength];
  int16_t rev_b[kRevSlots];
  std::fill(row_char, row_char + kMaxDpLength, int16_t{256});
  std::fill(rev_b, rev_b + kRevSlots, int16_t{257});
  for (size_t i = 0; i < n; ++i) row_char[i] = static_cast<uint8_t>(a[i]);
  for (size_t t = 0; t < m; ++t) {
    rev_b[kRevBase + t] = static_cast<uint8_t>(b[m - 1 - t]);
  }
  h[1][0] = border(1);  // Diagonal 1: cell (1, 0); E[1][0] is -inf.

  const __m256i match = _mm256_set1_epi16(kMatch);
  const __m256i mismatch = _mm256_set1_epi16(-kMatch);
  const __m256i gap = _mm256_set1_epi16(kGap);
  const __m256i extend = _mm256_set1_epi16(kExtend);
  const __m256i lane_rows = _mm256_setr_epi16(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                              11, 12, 13, 14, 15, 16);
  __m256i best = zero;
  const int ni = static_cast<int>(n);
  const int mi = static_cast<int>(m);
  for (int d = 2; d <= ni + mi; ++d) {
    __m256i* h_cur = h[d % 3];
    const __m256i* h_d1 = h[(d - 1) % 3];
    const __m256i* h_d2 = h[(d - 2) % 3];
    __m256i* e_cur = e[d % 2];
    __m256i* f_cur = f[d % 2];
    const __m256i* e_d1 = e[(d - 1) % 2];
    const __m256i* f_d1 = f[(d - 1) % 2];
    const int first = (std::max(1, d - mi) - 1) / kRowsPerVector;
    const int last = (std::min(ni, d) - 1) / kRowsPerVector;
    for (int v = first; v <= last; ++v) {
      const __m256i left = h_d1[v];  // H[i][j-1]
      const __m256i up =             // H[i-1][j]
          ShiftRows(left, v == 0 ? border(d - 1) : h_d1[v - 1]);
      const __m256i diag =  // H[i-1][j-1]
          ShiftRows(h_d2[v], v == 0 ? border(d - 2) : h_d2[v - 1]);
      const __m256i b_chars =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
              rev_b + kRevBase + mi - d + 1 + v * kRowsPerVector));
      const __m256i a_chars = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(row_char + v * kRowsPerVector));
      const __m256i scored = _mm256_adds_epi16(
          diag, _mm256_blendv_epi8(mismatch, match,
                                   _mm256_cmpeq_epi16(a_chars, b_chars)));
      __m256i cell;
      __m256i e_new;
      if constexpr (kKind == Alignment::kLocalAffine) {
        e_new = _mm256_max_epi16(_mm256_adds_epi16(e_d1[v], extend),
                                 _mm256_adds_epi16(left, gap));
        const __m256i f_up =  // F[i-1][j]
            ShiftRows(f_d1[v], v == 0 ? neg_inf : f_d1[v - 1]);
        const __m256i f_new =
            _mm256_max_epi16(_mm256_adds_epi16(f_up, extend),
                             _mm256_adds_epi16(up, gap));
        f_cur[v] = f_new;
        cell = _mm256_max_epi16(_mm256_max_epi16(zero, scored),
                                _mm256_max_epi16(e_new, f_new));
      } else {
        cell = _mm256_max_epi16(scored,
                                _mm256_max_epi16(_mm256_adds_epi16(up, gap),
                                                 _mm256_adds_epi16(left, gap)));
        if constexpr (kLocal) cell = _mm256_max_epi16(cell, zero);
      }
      if (v == last && d <= ni) {  // Row d holds the border cell (d, 0).
        const __m256i col0 = _mm256_cmpeq_epi16(
            _mm256_add_epi16(lane_rows, _mm256_set1_epi16(static_cast<int16_t>(
                                            v * kRowsPerVector))),
            _mm256_set1_epi16(static_cast<int16_t>(d)));
        cell = _mm256_blendv_epi8(cell, border(d), col0);
        if constexpr (kKind == Alignment::kLocalAffine) {
          e_new = _mm256_blendv_epi8(e_new, neg_inf, col0);
        }
      }
      h_cur[v] = cell;
      if constexpr (kKind == Alignment::kLocalAffine) e_cur[v] = e_new;
      if constexpr (kLocal) best = _mm256_max_epi16(best, cell);
    }
  }
  alignas(32) int16_t lanes[kRowsPerVector];
  if constexpr (!kLocal) {
    // H[n][m] sits on the last diagonal at row n.
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                       h[(ni + mi) % 3][(ni - 1) / kRowsPerVector]);
    return lanes[(ni - 1) % kRowsPerVector];
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
  return *std::max_element(lanes, lanes + kRowsPerVector);
}

int NwScoreAvx2(const char* a, size_t n, const char* b, size_t m) {
  return AlignAvx2<Alignment::kGlobal>(a, n, b, m);
}

int SwScoreX4Avx2(const char* a, size_t n, const char* b, size_t m) {
  return AlignAvx2<Alignment::kLocal>(a, n, b, m);
}

int SwgScoreX4Avx2(const char* a, size_t n, const char* b, size_t m) {
  return AlignAvx2<Alignment::kLocalAffine>(a, n, b, m);
}

// ---- svm_margin_block --------------------------------------------------
//
// Full 8-row blocks: load 8 floats from each row, transpose in registers
// so each column vector holds one feature j across all 8 rows, then for
// each j broadcast w[j] and do one mul_pd + one add_pd into per-row double
// accumulators — the same single-rounded multiply-add per (row, j) as the
// scalar reference, just 4 rows per instruction. Partial trailing blocks
// take the scalar kernel.

// 8x8 float transpose: rows in, columns out (lane r of out[k] = in[r][k]).
inline void Transpose8x8(const __m256 in[8], __m256 out[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(in[0], in[1]);
  const __m256 t1 = _mm256_unpackhi_ps(in[0], in[1]);
  const __m256 t2 = _mm256_unpacklo_ps(in[2], in[3]);
  const __m256 t3 = _mm256_unpackhi_ps(in[2], in[3]);
  const __m256 t4 = _mm256_unpacklo_ps(in[4], in[5]);
  const __m256 t5 = _mm256_unpackhi_ps(in[4], in[5]);
  const __m256 t6 = _mm256_unpacklo_ps(in[6], in[7]);
  const __m256 t7 = _mm256_unpackhi_ps(in[6], in[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  out[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  out[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  out[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  out[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  out[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  out[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  out[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  out[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

void SvmMarginBlockAvx2(const double* w, size_t d, double bias,
                        const float* const* x, size_t nrows, double* out) {
  static_assert(kSvmMarginBlock == 8,
                "AVX2 SVM kernel is shaped for 8-row blocks");
  if (nrows != 8) {
    kScalarOps.svm_margin_block(w, d, bias, x, nrows, out);
    return;
  }
  __m256d acc_lo = _mm256_set1_pd(bias);  // Rows 0..3.
  __m256d acc_hi = _mm256_set1_pd(bias);  // Rows 4..7.
  size_t j = 0;
  __m256 rows[8];
  __m256 cols[8];
  for (; j + 8 <= d; j += 8) {
    for (size_t r = 0; r < 8; ++r) rows[r] = _mm256_loadu_ps(x[r] + j);
    Transpose8x8(rows, cols);
    for (size_t k = 0; k < 8; ++k) {
      const __m256d wj = _mm256_set1_pd(w[j + k]);
      const __m256d x_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(cols[k]));
      const __m256d x_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(cols[k], 1));
      acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(wj, x_lo));
      acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(wj, x_hi));
    }
  }
  double acc[8];
  _mm256_storeu_pd(acc, acc_lo);
  _mm256_storeu_pd(acc + 4, acc_hi);
  // Feature tail continues the same accumulators in ascending j.
  for (; j < d; ++j) {
    const double wj = w[j];
    for (size_t r = 0; r < 8; ++r) acc[r] += wj * x[r][j];
  }
  for (size_t r = 0; r < 8; ++r) out[r] = acc[r];
}

// ---- nn_forward / nn_backward ------------------------------------------
//
// Forward: vectorized across the 8 ROWS of a block. The input block is
// transposed once into xt (xt[j*8 + r] = x[r][j], floats widened exactly
// to double), then four units at a time broadcast w[o][j] against the two
// 4-row halves of column j: 8 independent accumulators, each starting at
// bias[o] and fed one rounded multiply and one rounded add per j in
// ascending order — the scalar kernel's sequence per (row, unit). Partial
// blocks and the unit tail (out % 4) stay exact the same way.
//
// Backward: vectorized across INPUT positions j, which are independent in
// both gradients. Per unit, the rows with a nonzero gradient are taken in
// ascending order (groups of 8), and each j lane adds g * x[r][j] into
// dw[o][j] and g * w[o][j] into dx[r][j] — the scalar order per element.

inline __m256d Load4(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}
inline __m256d Load4(const double* p) { return _mm256_loadu_pd(p); }

// xt[j*8 + r] = x[r][j] for the 8 rows of a full block.
void TransposeBlock(const float* const* x, size_t in, double* xt) {
  __m256 rows[8];
  __m256 cols[8];
  size_t j = 0;
  for (; j + 8 <= in; j += 8) {
    for (size_t r = 0; r < 8; ++r) rows[r] = _mm256_loadu_ps(x[r] + j);
    Transpose8x8(rows, cols);
    for (size_t k = 0; k < 8; ++k) {
      double* dst = xt + (j + k) * 8;
      _mm256_storeu_pd(dst, _mm256_cvtps_pd(_mm256_castps256_ps128(cols[k])));
      _mm256_storeu_pd(dst + 4,
                       _mm256_cvtps_pd(_mm256_extractf128_ps(cols[k], 1)));
    }
  }
  for (; j < in; ++j) {
    for (size_t r = 0; r < 8; ++r) xt[j * 8 + r] = x[r][j];
  }
}

void TransposeBlock(const double* const* x, size_t in, double* xt) {
  size_t j = 0;
  for (; j + 4 <= in; j += 4) {
    for (size_t half = 0; half < 2; ++half) {
      const double* const* xr = x + half * 4;
      const __m256d r0 = _mm256_loadu_pd(xr[0] + j);
      const __m256d r1 = _mm256_loadu_pd(xr[1] + j);
      const __m256d r2 = _mm256_loadu_pd(xr[2] + j);
      const __m256d r3 = _mm256_loadu_pd(xr[3] + j);
      const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
      const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
      const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
      const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
      double* dst = xt + j * 8 + half * 4;
      _mm256_storeu_pd(dst, _mm256_permute2f128_pd(t0, t2, 0x20));
      _mm256_storeu_pd(dst + 8, _mm256_permute2f128_pd(t1, t3, 0x20));
      _mm256_storeu_pd(dst + 16, _mm256_permute2f128_pd(t0, t2, 0x31));
      _mm256_storeu_pd(dst + 24, _mm256_permute2f128_pd(t1, t3, 0x31));
    }
  }
  for (; j < in; ++j) {
    for (size_t r = 0; r < 8; ++r) xt[j * 8 + r] = x[r][j];
  }
}

template <typename In>
void NnForwardAvx2(const double* w, const double* bias, size_t in,
                   size_t out, const In* const* x, size_t nrows, double* xt,
                   double* z) {
  static_assert(kNnRowBlock == 8, "AVX2 NN kernel is shaped for 8-row blocks");
  if (nrows != 8) {
    if constexpr (std::is_same_v<In, float>) {
      kScalarOps.nn_forward_f32(w, bias, in, out, x, nrows, xt, z);
    } else {
      kScalarOps.nn_forward_f64(w, bias, in, out, x, nrows, xt, z);
    }
    return;
  }
  TransposeBlock(x, in, xt);
  double acc[4][8];
  size_t o = 0;
  for (; o + 4 <= out; o += 4) {
    const double* w0 = w + o * in;
    const double* w1 = w0 + in;
    const double* w2 = w1 + in;
    const double* w3 = w2 + in;
    __m256d a0l = _mm256_set1_pd(bias[o]), a0h = a0l;
    __m256d a1l = _mm256_set1_pd(bias[o + 1]), a1h = a1l;
    __m256d a2l = _mm256_set1_pd(bias[o + 2]), a2h = a2l;
    __m256d a3l = _mm256_set1_pd(bias[o + 3]), a3h = a3l;
    for (size_t j = 0; j < in; ++j) {
      const __m256d xl = _mm256_loadu_pd(xt + j * 8);
      const __m256d xh = _mm256_loadu_pd(xt + j * 8 + 4);
      const __m256d b0 = _mm256_set1_pd(w0[j]);
      const __m256d b1 = _mm256_set1_pd(w1[j]);
      const __m256d b2 = _mm256_set1_pd(w2[j]);
      const __m256d b3 = _mm256_set1_pd(w3[j]);
      a0l = _mm256_add_pd(a0l, _mm256_mul_pd(b0, xl));
      a0h = _mm256_add_pd(a0h, _mm256_mul_pd(b0, xh));
      a1l = _mm256_add_pd(a1l, _mm256_mul_pd(b1, xl));
      a1h = _mm256_add_pd(a1h, _mm256_mul_pd(b1, xh));
      a2l = _mm256_add_pd(a2l, _mm256_mul_pd(b2, xl));
      a2h = _mm256_add_pd(a2h, _mm256_mul_pd(b2, xh));
      a3l = _mm256_add_pd(a3l, _mm256_mul_pd(b3, xl));
      a3h = _mm256_add_pd(a3h, _mm256_mul_pd(b3, xh));
    }
    _mm256_storeu_pd(acc[0], a0l);
    _mm256_storeu_pd(acc[0] + 4, a0h);
    _mm256_storeu_pd(acc[1], a1l);
    _mm256_storeu_pd(acc[1] + 4, a1h);
    _mm256_storeu_pd(acc[2], a2l);
    _mm256_storeu_pd(acc[2] + 4, a2h);
    _mm256_storeu_pd(acc[3], a3l);
    _mm256_storeu_pd(acc[3] + 4, a3h);
    for (size_t r = 0; r < 8; ++r) {
      for (size_t u = 0; u < 4; ++u) z[r * out + o + u] = acc[u][r];
    }
  }
  for (; o < out; ++o) {
    const double* wo = w + o * in;
    __m256d al = _mm256_set1_pd(bias[o]), ah = al;
    for (size_t j = 0; j < in; ++j) {
      const __m256d b = _mm256_set1_pd(wo[j]);
      al = _mm256_add_pd(al, _mm256_mul_pd(b, _mm256_loadu_pd(xt + j * 8)));
      ah = _mm256_add_pd(ah,
                         _mm256_mul_pd(b, _mm256_loadu_pd(xt + j * 8 + 4)));
    }
    _mm256_storeu_pd(acc[0], al);
    _mm256_storeu_pd(acc[0] + 4, ah);
    for (size_t r = 0; r < 8; ++r) z[r * out + o] = acc[0][r];
  }
}

template <typename In>
void NnBackwardAvx2(const double* w, const double* g, size_t in, size_t out,
                    const In* const* x, size_t nrows, double* dw,
                    double* dx) {
  if (dx != nullptr) std::fill(dx, dx + nrows * in, 0.0);
  size_t active[8];
  __m256d gains[8];
  for (size_t o = 0; o < out; ++o) {
    const double* wo = w + o * in;
    double* dwo = dw + o * in;
    bool started = false;  // dwo holds the 0.0 + ... sums once set.
    for (size_t base = 0; base < nrows; base += 8) {
      const size_t end = std::min(nrows, base + 8);
      size_t na = 0;
      for (size_t r = base; r < end; ++r) {
        // Branch-free compaction: a zero gradient's slot is overwritten.
        const double gr = g[r * out + o];
        active[na] = r;
        gains[na] = _mm256_set1_pd(gr);
        na += gr != 0.0 ? 1 : 0;
      }
      if (na == 0) continue;
      const __m256d zero = _mm256_setzero_pd();
      size_t j = 0;
      for (; j + 16 <= in; j += 16) {
        __m256d a0 = started ? _mm256_loadu_pd(dwo + j) : zero;
        __m256d a1 = started ? _mm256_loadu_pd(dwo + j + 4) : zero;
        __m256d a2 = started ? _mm256_loadu_pd(dwo + j + 8) : zero;
        __m256d a3 = started ? _mm256_loadu_pd(dwo + j + 12) : zero;
        for (size_t a = 0; a < na; ++a) {
          const In* xr = x[active[a]] + j;
          a0 = _mm256_add_pd(a0, _mm256_mul_pd(gains[a], Load4(xr)));
          a1 = _mm256_add_pd(a1, _mm256_mul_pd(gains[a], Load4(xr + 4)));
          a2 = _mm256_add_pd(a2, _mm256_mul_pd(gains[a], Load4(xr + 8)));
          a3 = _mm256_add_pd(a3, _mm256_mul_pd(gains[a], Load4(xr + 12)));
        }
        _mm256_storeu_pd(dwo + j, a0);
        _mm256_storeu_pd(dwo + j + 4, a1);
        _mm256_storeu_pd(dwo + j + 8, a2);
        _mm256_storeu_pd(dwo + j + 12, a3);
      }
      for (; j + 4 <= in; j += 4) {
        __m256d a0 = started ? _mm256_loadu_pd(dwo + j) : zero;
        for (size_t a = 0; a < na; ++a) {
          a0 = _mm256_add_pd(
              a0, _mm256_mul_pd(gains[a], Load4(x[active[a]] + j)));
        }
        _mm256_storeu_pd(dwo + j, a0);
      }
      for (; j < in; ++j) {
        double acc = started ? dwo[j] : 0.0;
        for (size_t a = 0; a < na; ++a) {
          acc += _mm256_cvtsd_f64(gains[a]) * x[active[a]][j];
        }
        dwo[j] = acc;
      }
      started = true;
      if (dx == nullptr) continue;
      for (size_t a = 0; a < na; ++a) {
        double* dxr = dx + active[a] * in;
        size_t k = 0;
        for (; k + 4 <= in; k += 4) {
          _mm256_storeu_pd(
              dxr + k,
              _mm256_add_pd(_mm256_loadu_pd(dxr + k),
                            _mm256_mul_pd(gains[a], _mm256_loadu_pd(wo + k))));
        }
        const double gr = _mm256_cvtsd_f64(gains[a]);
        for (; k < in; ++k) dxr[k] += gr * wo[k];
      }
    }
    if (!started) std::fill(dwo, dwo + in, 0.0);
  }
}

}  // namespace

const KernelOps kAvx2Ops = {
    /*name=*/"avx2",
    /*jaro_scan=*/JaroScanAvx2,
    /*nw_score=*/NwScoreAvx2,
    /*sw_score_x4=*/SwScoreX4Avx2,
    /*swg_score_x4=*/SwgScoreX4Avx2,
    /*svm_margin_block=*/SvmMarginBlockAvx2,
    /*nn_forward_f32=*/NnForwardAvx2<float>,
    /*nn_forward_f64=*/NnForwardAvx2<double>,
    /*nn_backward_f32=*/NnBackwardAvx2<float>,
    /*nn_backward_f64=*/NnBackwardAvx2<double>,
};

}  // namespace internal
}  // namespace kernels
}  // namespace alem
