// Int8 GEMM kernel layer: int8×int8→int32 products for the quantized
// inference path, runtime-dispatched over the same backends as kernels.h.
//
// Exact-integer contract
// ----------------------
// Unlike the float layer (where bit-identity required pinning a per-element
// floating-point operation sequence), every int8 kernel computes the
// EXACT mathematical int32 dot product — integer addition is associative,
// so any backend, tile shape, instruction mix, or thread partition yields
// the same bits by construction.  The contract is pinned by committed CRC
// goldens in tests/test_kernels.cpp (QgemmGolden.*) run against every
// available backend, and by the int8 determinism test across 1/2/8 intra-op
// threads.  Requirement for that exactness: k must satisfy
// k * 255 * 128 < 2^31 (k <= 65536) so no accumulator — including the
// biased-unsigned VNNI intermediate — can overflow; the entry points
// assert this.  Real layers have k <= a few thousand.
//
// The floating-point edges of the path — activation quantization and
// requantization — ARE floating point, so their per-element sequences are
// pinned too (documented at each function) and qgemm.cpp is compiled with
// -ffp-contract=off like gemm.cpp.
//
// Operand convention: both operands are row-major with contiguous
// reduction (K) rows, i.e. every kernel is an NT-style "rows of X dot rows
// of Y" product.  Linear stages its activations into that layout; the
// convolutions instead call qconv(), which quantizes straight from the
// NCHW input into its own tile layout and reproduces the composed
// quantize_rows -> qgemm_wgt_act -> requantize contract bit for bit.
//
// Threading: entry points split the output row-blocks (and batch panels)
// of one call across a lazily created runtime::ThreadPool when
// gemm_threads() > 1.  Because partial blocks are disjoint output regions
// computed exactly, results are bit-identical for every thread count.
#pragma once

#include <cstdint>

#include "nn/kernels/kernels.h"

namespace rowpress::nn::kernels {

/// Per-row symmetric dynamic quantization of a float activation matrix
/// x[rows, k] into int8 codes q[rows, k] with per-row dequant scales
/// scale[rows].  Per-element contract (pinned; computed in the
/// -ffp-contract=off TU):
///
///   amax    = max_i |x[i]|        (fmaxf over ascending i: NaN terms are
///                                  ignored per IEEE maxNum)
///   if amax == 0 (or all-NaN): scale = 0, all codes = 0
///   else: inv   = 127.0f / amax
///         scale = amax / 127.0f
///         q[i]  = (int8) nearbyintf(fminf(127.0f, fmaxf(-127.0f, x[i]*inv)))
///
/// nearbyintf in the default FP environment rounds ties to even; the
/// fmaxf-then-fminf clamp maps NaN to -127 deterministically (no UB cast).
void quantize_rows(const float* x, std::int8_t* q, float* scale, int rows,
                   int k);

/// Bias layout for requantize().
enum class BiasAxis {
  kNone,    ///< no bias
  kPerRow,  ///< bias[i] added to every element of output row i
  kPerCol,  ///< bias[j] added to every element of output column j
};

/// Converts int32 accumulators back to float activations:
///   y[i*n + j] = fmaf((float)acc[i*n + j], row_scale[i] * col_scale[j],
///                     bias_or_zero)
/// One explicitly-written fma per element (pinned; -ffp-contract=off TU).
/// row_scale/col_scale may be null meaning 1.0f on that axis.
void requantize(const std::int32_t* acc, const float* row_scale,
                const float* col_scale, const float* bias, BiasAxis bias_axis,
                float* y, int m, int n);

/// C[M,N] (+)= act[M,K] * wgt[N,K]^T — activation rows dot weight rows
/// (the Linear orientation: output rows are samples, columns are output
/// channels).  `wgt_row_sums[N]` are the per-row code sums of `wgt`
/// (QuantWeight::row_sums); backends using biased-unsigned activation
/// products (VNNI) subtract 128 * wgt_row_sums[j] instead of re-reducing
/// the weights.  Required non-null for every backend so dispatch is
/// uniform.  accumulate=false overwrites C (k = 0 writes zeros);
/// accumulate=true adds to existing C (k = 0 leaves C untouched).
void qgemm_act_wgt(const std::int8_t* act, const std::int8_t* wgt,
                   const std::int32_t* wgt_row_sums, std::int32_t* c, int m,
                   int k, int n, bool accumulate);

/// C[M,N] (+)= wgt[M,K] * act[N,K]^T — weight rows dot activation rows
/// (the conv orientation: output rows are output channels, columns are
/// spatial positions).  `wgt_row_sums[M]` as above.
void qgemm_wgt_act(const std::int8_t* wgt, const std::int8_t* act,
                   const std::int32_t* wgt_row_sums, std::int32_t* c, int m,
                   int k, int n, bool accumulate);

/// Batched/strided form of qgemm_wgt_act: one call runs `batch`
/// independent products sharing the same weight operand,
///   C_b[M,N] (+)= wgt[M,K] * act_b[N,K]^T
/// with act_b = act + b*act_stride and C_b = c + b*c_stride (strides in
/// elements).  This is the whole-eval-batch conv path: the batch×row-block
/// grid is split across the thread pool as one work set instead of a
/// per-sample kernel-call loop.
void qgemm_wgt_act_batched(const std::int8_t* wgt, const std::int8_t* act,
                           const std::int32_t* wgt_row_sums, std::int32_t* c,
                           int m, int k, int n, int batch,
                           std::int64_t act_stride, std::int64_t c_stride,
                           bool accumulate);

/// Shape of one int8 convolution: NCHW input x[batch, cin, h, w], weight
/// codes [cout, patch()] with the reduction in (ci, ki, kj) order, output
/// y[batch, cout, out_h(), out_w()].  Zero padding is symmetric per axis.
/// Conv1d is the h = kh = 1, stride_h = 1, pad_h = 0 case.
struct QConvShape {
  int batch = 1, cin = 1, h = 1, w = 1, cout = 1;
  int kh = 1, kw = 1;
  int stride_h = 1, stride_w = 1;
  int pad_h = 0, pad_w = 0;

  int out_h() const { return (h + 2 * pad_h - kh) / stride_h + 1; }
  int out_w() const { return (w + 2 * pad_w - kw) / stride_w + 1; }
  int patch() const { return cin * kh * kw; }
};

/// Fused int8 convolution — the whole int8 branch of Conv2d/Conv1d.
/// Bit-identical to the composition it replaces: for every output position
/// p, its zero-padded patch row v_p (im2col order) is quantized by the
/// quantize_rows() contract into codes q_p and scale_p, then
///   acc[co, p] = sum_k wgt[co, k] * q_p[k]          (exact int32)
///   y[b, co, p] = fmaf((float)acc, wgt_scales[co] * scale_p,
///                      bias != null ? bias[co] : 0.0f)
/// i.e. requantize() with row_scale = wgt_scales, col_scale = the patch
/// scales and a per-row bias.  `wgt_row_sums[cout]` as for the GEMMs.
///
/// Two stages, timed into the bound kernel histograms (see bind_metrics):
///   1. "kernels.qpack_ns": quantize activations from the input straight
///      into tiles of 16 output positions, stored [K/4][16][4] and biased
///      to unsigned, plus the per-call weight pack;
///   2. "kernels.qgemm_ns": per tile, a microkernel holding 8 output
///      channels x 16 positions in registers (VNNI dpbusd; AVX2 madd;
///      a scalar loop on naive/portable) whose epilogue requantizes and
///      stores the valid positions into NCHW.
/// Every lane runs its own position's exact op sequence, so the result is
/// identical for every backend and gemm_threads() value.
void qconv(const float* x, const std::int8_t* wgt,
           const std::int32_t* wgt_row_sums, const float* wgt_scales,
           const float* bias, const QConvShape& shape, float* y);

/// Intra-op thread count used by the GEMM entry points.  Resolved once,
/// lazily: ROWPRESS_GEMM_THREADS when set (clamped to >= 1), otherwise 1 —
/// intra-op parallelism is opt-in because attack workers already
/// parallelize across trials.  Bit-identity across thread counts is
/// guaranteed (see contract above) and pinned by tests.
int gemm_threads();

/// Overrides the intra-op thread count (values < 1 mean 1).
void set_gemm_threads(int n);

/// Reference implementation of the exact int32 contract (plain scalar
/// triple loop); golden oracle for tests.
namespace ref {
void qgemm_nt(const std::int8_t* x, const std::int8_t* y, std::int32_t* c,
              int m, int k, int n, bool accumulate);
}  // namespace ref

}  // namespace rowpress::nn::kernels
