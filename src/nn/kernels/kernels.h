// Fast GEMM kernel layer: the three accumulate ops every layer builds on
// (linear, attention, conv backward via im2col) plus the fused float conv
// forward, runtime-dispatched over backends.
//
// Bit-exactness contract
// ----------------------
// Every backend — including the retained naive reference — computes the
// SAME per-element floating-point operation sequence, so results are
// bitwise identical across backends.  The sequences below are pinned by
// committed CRC goldens in tests/test_kernels.cpp (GemmGolden.
// MatchesCommittedSequenceGoldens); on the reference build environment
// (GCC 12.2, x86-64 AVX2, Release `-O3 -DNDEBUG -march=native`) they were
// additionally verified bitwise against the pre-kernel-layer scalar loops
// in tensor.cpp, compiled as their own TU with those exact flags, across
// 390 shapes including all k%8 tails.  A pre-PR binary built by a
// different compiler or for a different ISA may have rounded the NT
// reduction differently; there the guarantee is determinism across the
// new backends, not pre/post-PR identity.
//
// The per-element sequences:
//
//   gemm_nn / gemm_tn:  each output element is an FMA chain over the
//     reduction index in ascending order; reduction terms whose A operand
//     equals 0.0f are skipped entirely (the historical sparsity shortcut —
//     it also changes Inf/NaN propagation, so it is part of the contract).
//
//   gemm_nt:  each output element is a dot product accumulated from zero —
//     separately-rounded multiply-then-add for the first (k & ~7) terms,
//     FMA for the remaining k % 8 terms — followed by one plain add into C.
//     (GCC's codegen for the original serial scalar loop: it vectorized
//     the multiplies but kept the adds in order — legal without
//     -fassociative-math — and fused only the tail.  Confirmed bitwise
//     against that TU on the reference build environment, see above.)
//
// The blocked/SIMD paths may reorder loops, tile, pack, or keep partial
// sums in registers, but never change any element's operation sequence.
#pragma once

#include <cstdint>
#include <string>

namespace rowpress::telemetry {
class MetricsRegistry;
}

namespace rowpress::nn::kernels {

enum class Backend {
  kNaive = 0,     ///< retained scalar reference (always available)
  kPortable = 1,  ///< cache-blocked, auto-vectorizable C++ (always available)
  kAvx2 = 2,      ///< AVX2+FMA register-tiled micro-kernels (when compiled in)
  kVnni = 3,      ///< AVX-512 VNNI int8 dot-product kernels (when compiled in;
                  ///<   float entry points route to the AVX2 implementations,
                  ///<   which are bitwise identical by the contract above)
};

/// C[M,N] += A[M,K] * B[K,N].
void gemm_nn(const float* a, const float* b, float* c, int m, int k, int n);

/// C[M,N] += A[M,K] * B^T where B is [N,K].
void gemm_nt(const float* a, const float* b, float* c, int m, int k, int n);

/// C[K,N] += A^T * B where A is [M,K], B is [M,N].
void gemm_tn(const float* a, const float* b, float* c, int m, int k, int n);

/// Shape of one convolution: NCHW input x[batch, cin, h, w], weight
/// [cout, patch()] with the reduction in (ci, ki, kj) order, output
/// y[batch, cout, out_h(), out_w()].  Zero padding is symmetric per axis.
/// Conv1d is the h = kh = 1, stride_h = 1, pad_h = 0 case.
struct ConvShape {
  int batch = 1, cin = 1, h = 1, w = 1, cout = 1;
  int kh = 1, kw = 1;
  int stride_h = 1, stride_w = 1;
  int pad_h = 0, pad_w = 0;

  int out_h() const { return (h + 2 * pad_h - kh) / stride_h + 1; }
  int out_w() const { return (w + 2 * pad_w - kw) / stride_w + 1; }
  int patch() const { return cin * kh * kw; }
};

/// Fused float convolution — the whole float forward of Conv2d/Conv1d.
/// Bit-identical on every backend to this per-sample composition: fill
/// y_b with bias[co] (+0.0f without a bias), then gemm_nn(wgt,
/// im2col(x_b), y_b).  So each output element is gemm_nn's FMA chain over
/// its zero-padded patch in (ci, ki, kj) order, starting from the bias and
/// skipping taps whose weight equals 0.0f.  It runs over zero-padded phase
/// planes (conv_plan.h), with no im2col matrix, except that the plain-C++
/// backends (naive, portable) run small padded maps as im2col + gemm_nn,
/// where that is faster (conv.cpp).  Each call records one
/// sample into "kernels.gemm_ns" while kernel telemetry is bound.
void conv(const float* x, const float* wgt, const float* bias,
          const ConvShape& shape, float* y);

/// Backward of conv() over the batch, per sample b:
///   wgrad[cout, patch]  += gemm_nt(g_b, im2col(x_b))
///   bias_grad[co]       += sum over positions of g_b[co, :] (when non-null)
///   grad_in_b           += col2im(gemm_tn(wgt, g_b))
/// with g = grad_out[batch, cout, out_h(), out_w()].  Every sum is
/// accumulated in a fixed order, so the result is bit-identical across
/// backends.  Scratch is per thread.
void conv_backward(const float* x, const float* wgt, const float* grad_out,
                   const ConvShape& shape, float* wgrad, float* bias_grad,
                   float* grad_in);

/// One sample of `shape` (batch ignored) as the [patch(), out_h()*out_w()]
/// matrix conv_backward's GEMMs read: row (ci, ki, kj), column (i, j)
/// holds x[ci, i*stride_h - pad_h + ki, j*stride_w - pad_w + kj], or +0.0f
/// where that lies in the padding.
void im2col(const float* x, const ConvShape& shape, float* col);

/// Backend used by the gemm_* entry points.  Resolved once, lazily: the
/// ROWPRESS_KERNEL environment variable ("naive" | "portable" | "avx2" |
/// "vnni") when set, otherwise the fastest backend this CPU supports.  An
/// env-requested backend that is not available here falls back to the
/// fastest available one with a warning on stderr, so a pinned CI matrix
/// stays runnable on machines without the wider ISA.
Backend active_backend();

/// Overrides the active backend (tests/benchmarks).  Requires the backend
/// to be available on this machine.
void set_backend(Backend b);

/// True when the backend can run here (compiled in + CPU support).
bool backend_available(Backend b);

const char* backend_name(Backend b);

/// CPU SIMD capabilities relevant to kernel selection, as detected at
/// runtime (compiled-in paths AND cpuid agree).  Cached after first call.
struct CpuFeatures {
  bool avx2 = false;  ///< AVX2+FMA float micro-kernels usable
  bool vnni = false;  ///< AVX-512 VNNI int8 dot-product kernels usable
};
const CpuFeatures& cpu_features();

/// Human-readable summary, e.g. "avx2+vnni", "avx2", or "baseline".
std::string cpu_features_string();

/// Records the selected backend and detected CPU features as gauges
/// ("kernels.backend" = Backend enum value, "kernels.cpu_avx2",
/// "kernels.cpu_vnni" = 0/1) so exported metrics and BENCH_*.json numbers
/// are attributable to the machine/backend that produced them.
void record_backend_gauges(telemetry::MetricsRegistry& metrics);

/// Binds the calling thread's kernel telemetry to `metrics` (idempotently
/// registering the "kernels.gemm_ns", "kernels.qgemm_ns" and
/// "kernels.qpack_ns" histograms there) — or detaches it when null.
/// Thread-local: each attack worker binds its own registry, so recording
/// needs no synchronization beyond the histogram's own atomics.
/// Unbound threads skip the clock reads entirely.
void bind_metrics(telemetry::MetricsRegistry* metrics);

/// RAII wrapper around bind_metrics(): binds on construction, detaches on
/// destruction.  The binding is a raw pointer into `metrics` held in a
/// thread-local, so every binding MUST be scoped to the registry's
/// lifetime — pooled worker threads outlive per-trial registries, and an
/// orphaned binding would make the next trial's GEMMs record into freed
/// memory.  Exception-safe (attacks abort by throwing on cancellation).
class ScopedBindMetrics {
 public:
  explicit ScopedBindMetrics(telemetry::MetricsRegistry* metrics) {
    bind_metrics(metrics);
  }
  ~ScopedBindMetrics() { bind_metrics(nullptr); }
  ScopedBindMetrics(const ScopedBindMetrics&) = delete;
  ScopedBindMetrics& operator=(const ScopedBindMetrics&) = delete;
};

/// Reference implementations of the exact per-element operation sequences
/// (see the contract above).  Slow by design; golden oracle for tests and
/// the baseline side of bench_kernels.
namespace ref {
void gemm_nn(const float* a, const float* b, float* c, int m, int k, int n);
void gemm_nt(const float* a, const float* b, float* c, int m, int k, int n);
void gemm_tn(const float* a, const float* b, float* c, int m, int k, int n);
}  // namespace ref

}  // namespace rowpress::nn::kernels
