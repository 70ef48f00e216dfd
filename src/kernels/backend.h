// Runtime-dispatched SIMD kernel backends for the framework's hot inner
// loops.
//
// PR 4/5 restructured the two scoring hot paths — the similarity
// EvaluateChunk kernels and the per-learner batch kernels (blocked SVM
// GEMV, fused NN forward pass) — into chunked, scratch-hoisted loops.
// This layer makes those inner loops pluggable: one kernel API with a
// portable scalar reference implementation (always compiled, always the
// correctness baseline) and optional SIMD implementations selected at
// runtime from CPU capabilities.
//
// Equivalence contract (enforced by tests/kernel_backend_test.cc and
// report_gate.sh stage 7; see docs/kernels.md):
//   * Every kernel in every backend currently registered is REORDER-FREE:
//     per output value it performs the same arithmetic operations in the
//     same order and rounding as the scalar reference, so results are
//     bitwise-identical. The AVX2 kernels vectorize across independent
//     outputs (rows, input positions, candidate positions), never across
//     a single floating-point accumulation, and their translation units are
//     built with -ffp-contract=off so no FMA contraction can change
//     rounding.
//   * A future backend MAY register a reassociating kernel (e.g. an
//     FMA-tiled GEMV); such kernels are ULP-BOUNDED instead of bitwise and
//     must document their tolerance in docs/kernels.md. The differential
//     harness carries a ULP comparator for exactly that case — today every
//     kernel passes it with a tolerance of 0 ULP.
//
// Selection: --kernel-backend=auto|scalar|avx2 (alem_cli, strict: an
// unavailable explicit choice is an error) or the ALEM_KERNEL_BACKEND
// environment knob (bench binaries and tests, forgiving: an unavailable
// choice warns on stderr and falls back to auto so a test matrix written
// on an AVX2 host still runs on older hardware). "auto" picks the best
// available backend and by construction never selects an unavailable one.
// The active backend is stamped into every RunReport (config.kernel_backend)
// and the "kernels.backend" gauge, so the regression gate can assert which
// backend actually ran.

#ifndef ALEM_KERNELS_BACKEND_H_
#define ALEM_KERNELS_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace alem {
namespace kernels {

// Row-block width of the SVM margin GEMV (ml/linear_svm.cc feeds blocks of
// at most this many rows to svm_margin_block).
inline constexpr size_t kSvmMarginBlock = 8;

// Row-block width of the NN forward kernels (ml/neural_net.cc feeds blocks
// of at most this many examples to nn_forward_*, in training and inference).
inline constexpr size_t kNnRowBlock = 8;

// Longest input string the alignment-score kernels accept (the sim layer's
// kMaxAlignmentLength cap). Scaled scores stay within +-4 * 2 * 64, far
// inside int16, which is what lets the AVX2 kernels use 16-bit lanes.
inline constexpr size_t kMaxDpLength = 64;

// Dispatch table: one function pointer per hot inner loop. All pointers are
// always non-null.
struct KernelOps {
  const char* name;

  // ---- similarity kernels (sim/edit_based.cc, via sim/token_based.cc) ----

  // Jaro match scan: first index j in [lo, hi) with b[j] == c and
  // matched[j] == 0; returns hi when no such j exists. Only strings longer
  // than 64 bytes take this path; shorter ones use the bit-parallel
  // flagging in sim/edit_based.cc. Exact (integer) semantics, so every
  // backend is bitwise-equivalent.
  size_t (*jaro_scan)(const char* b, const uint8_t* matched, size_t lo,
                      size_t hi, char c);

  // Alignment scores of a[0..n) against b[0..m), n, m <= kMaxDpLength,
  // match +1 / mismatch -1 on raw bytes. The gap costs are dyadic, so each
  // kernel runs the double DP of sim/edit_based.cc on integers scaled by a
  // power of two and every intermediate value is exact (docs/kernels.md):
  //   nw_score:      Needleman-Wunsch global score, gap -1 (unscaled).
  //   sw_score_x4:   Smith-Waterman best local score, gap -0.5, times 4.
  //   swg_score_x4:  Smith-Waterman-Gotoh best local score, gap open -0.5,
  //                  extend -0.25, times 4.
  // Exact (integer) semantics, so every backend is bitwise-equivalent.
  int (*nw_score)(const char* a, size_t n, const char* b, size_t m);
  int (*sw_score_x4)(const char* a, size_t n, const char* b, size_t m);
  int (*swg_score_x4)(const char* a, size_t n, const char* b, size_t m);

  // ---- ml kernels ----

  // Blocked SVM margin GEMV: out[r] = bias + sum_j w[j] * x[r][j] for
  // r < nrows (nrows <= kSvmMarginBlock), with each row's accumulation in
  // ascending j, one multiply + one add per step — the scalar Margin()
  // order, so results are bitwise-identical across backends.
  void (*svm_margin_block)(const double* w, size_t d, double bias,
                           const float* const* x, size_t nrows, double* out);

  // NN dense-layer affine over a block of nrows <= kNnRowBlock examples:
  // z[r*out + o] = bias[o] + sum_j w[o*in + j] * x[r][j], each z accumulated
  // from bias in ascending j with one multiply and one add per term — the
  // scalar Margin order, so results are bitwise-identical across backends.
  // `xt` is caller scratch of in * kNnRowBlock doubles (the SIMD backends
  // transpose the input block into it). The f32 variant reads layer-0
  // feature rows, the f64 variant hidden activations.
  void (*nn_forward_f32)(const double* w, const double* bias, size_t in,
                         size_t out, const float* const* x, size_t nrows,
                         double* xt, double* z);
  void (*nn_forward_f64)(const double* w, const double* bias, size_t in,
                         size_t out, const double* const* x, size_t nrows,
                         double* xt, double* z);

  // NN dense-layer backward over nrows examples (any count) with output
  // gradients g[r*out + o]:
  //   dw[o*in + j] = 0.0 + sum_r g[r*out + o] * x[r][j]   (ascending r)
  //   dx[r*in + j] = 0.0 + sum_o g[r*out + o] * w[o*in + j] (ascending o)
  // Both are overwritten; every (r, o) with g == 0.0 is skipped, as in the
  // scalar SGD loop. dx may be null (layer 0 has no input gradient).
  void (*nn_backward_f32)(const double* w, const double* g, size_t in,
                          size_t out, const float* const* x, size_t nrows,
                          double* dw, double* dx);
  void (*nn_backward_f64)(const double* w, const double* g, size_t in,
                          size_t out, const double* const* x, size_t nrows,
                          double* dw, double* dx);
};

enum class Backend : int {
  kScalar = 0,
  kAvx2 = 1,
};

// Stable lowercase name ("scalar", "avx2").
std::string_view BackendToName(Backend backend);

// The active dispatch table. First use resolves ALEM_KERNEL_BACKEND (or
// "auto" when unset); afterwards this is a single pointer load, so hot
// loops may call it per chunk without caring.
const KernelOps& Active();

Backend ActiveBackend();
std::string_view BackendName();  // == BackendToName(ActiveBackend())

// True when `backend` is compiled in AND supported by this CPU (checked
// via __builtin_cpu_supports at first use). kScalar is always available.
bool BackendAvailable(Backend backend);

// Names of all available backends, scalar first, in dispatch-preference
// order (the last entry is what "auto" resolves to... reversed: "auto"
// picks the LAST/most specialized entry).
std::vector<std::string_view> AvailableBackendNames();

// Selects the backend by name: "auto", "scalar", or "avx2". Returns false
// (active backend unchanged) with a message in *error when the name is
// unknown or the backend is unavailable on this CPU; error may be null.
// Not thread-safe against concurrently running kernels — call it at
// startup or between runs (tests/benches do the latter).
bool SetBackend(std::string_view name, std::string* error);

// Publishes the active backend as the "kernels.backend" gauge (numeric
// Backend enum value: 0 = scalar, 1 = avx2). Called by the report builders
// right before the metrics snapshot so the gauge lands in every RunReport.
void StampBackendGauge();

}  // namespace kernels
}  // namespace alem

#endif  // ALEM_KERNELS_BACKEND_H_
