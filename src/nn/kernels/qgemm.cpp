// Int8 GEMM backends + the floating-point edges of the quantized path
// (activation quantization, requantization).
//
// This TU is compiled with -ffp-contract=off (see src/CMakeLists.txt) for
// the same reason as gemm.cpp: quantize_rows and requantize are pinned
// per-element floating-point sequences (qgemm.h), and the compiler must
// not re-fuse the explicitly written multiply/add/fma steps.
//
// The integer kernels themselves need no such care: every backend computes
// the exact mathematical int32 dot product (qgemm.h's exact-integer
// contract), so tiling, instruction selection, and thread partitioning are
// all free choices.
//
//   * naive    — ref::qgemm_nt, the plain triple loop.
//   * portable — 4-wide output-column blocking, auto-vectorizable scalar.
//   * avx2     — sign-extend 16 int8 lanes to int16 and _mm256_madd_epi16
//                (int16×int16 → pairwise int32 adds; |pair| <= 2*127*128,
//                far from int16... int32 saturation, so exact).  This is
//                deliberately NOT the classic maddubs path: _mm256_maddubs
//                saturates its int16 pair sums and would break exactness.
//   * vnni     — AVX-512 VNNI _mm512_dpbusd_epi32, 64 reduction lanes per
//                instruction.  dpbusd multiplies UNSIGNED by signed bytes,
//                so the activation operand is pre-biased by +128
//                (p ^ 0x80) and the exact bias term 128 * sum(weight row)
//                is subtracted afterwards using QuantWeight::row_sums.
//
// qconv (the fused convolution, bottom half of the file) has its own
// per-backend pack and microkernel over one tile layout; see the section
// comment there.
//
// Accumulator bounds: with k <= 65536 the biased-unsigned intermediate is
// at most k * 255 * 128 < 2^31, so even the VNNI path never wraps; the
// entry points assert the bound.
#include "nn/kernels/qgemm.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "nn/kernels/conv_plan.h"
#include "nn/kernels/gemm.h"
#include "runtime/thread_pool.h"
#include "telemetry/metric.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

// GCC 12's AVX-512 headers self-initialize _mm512_undefined_ps(), which
// -W(maybe-)uninitialized misreports wherever the intrinsics inline.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace rowpress::nn::kernels {

namespace detail {

bool vnni_runtime_supported() {
  if constexpr (!kVnniCompiled) return false;
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512vnni");
}

}  // namespace detail

namespace {

// k * 255 * 128 must stay below 2^31 (see file comment).
constexpr int kMaxK = 65536;

// ---------------------------------------------------------------------------
// Intra-op thread pool

// -1 = not resolved yet; resolved lazily from ROWPRESS_GEMM_THREADS so a
// harness-set value is honored (same idiom as dispatch.cpp's g_backend).
std::atomic<int> g_threads{-1};

std::shared_ptr<runtime::ThreadPool> acquire_pool(int n) {
  static std::mutex mu;
  static std::shared_ptr<runtime::ThreadPool> pool;
  static int pool_size = 0;
  std::lock_guard<std::mutex> lock(mu);
  if (pool_size != n) {
    pool = std::make_shared<runtime::ThreadPool>(n);
    pool_size = n;
  }
  return pool;
}

// Runs body(0..tasks-1), fanning out across the shared pool when the
// resolved thread count allows.  Callers only ever submit leaf kernel
// blocks (no nested submission), so blocking on the futures cannot
// deadlock.  Any task partition yields identical bits (exact contract).
template <typename Body>
void parallel_for(int tasks, int threads, const Body& body) {
  if (threads <= 1 || tasks <= 1) {
    for (int t = 0; t < tasks; ++t) body(t);
    return;
  }
  auto pool = acquire_pool(threads);
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(tasks));
  for (int t = 0; t < tasks; ++t) {
    futures.push_back(pool->submit([&body, t] { body(t); }));
  }
  for (auto& f : futures) f.get();
}

// ---------------------------------------------------------------------------
// Telemetry (same clock discipline as dispatch.cpp's run_timed)

template <typename F>
inline void run_qtimed(F&& f) {
  telemetry::Histogram* hist = detail::bound_qgemm_histogram();
  if (hist == nullptr) {
    f();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  hist->record(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
}

// ---------------------------------------------------------------------------
// Scalar backends

inline void store_acc(std::int32_t* c, std::int32_t acc, bool accumulate) {
  *c = accumulate ? *c + acc : acc;
}

// Rows [i0, i1) of one panel via the portable backend: 4-wide column
// blocking so the x row streams once per four output columns.
void portable_block(const std::int8_t* x, const std::int8_t* y,
                    std::int32_t* c, int i0, int i1, int k, int n,
                    bool accumulate) {
  for (int i = i0; i < i1; ++i) {
    const std::int8_t* xi = x + static_cast<std::size_t>(i) * k;
    std::int32_t* ci = c + static_cast<std::size_t>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* y0 = y + static_cast<std::size_t>(j) * k;
      const std::int8_t* y1 = y0 + k;
      const std::int8_t* y2 = y1 + k;
      const std::int8_t* y3 = y2 + k;
      std::int32_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
      for (int kk = 0; kk < k; ++kk) {
        const std::int32_t xv = xi[kk];
        a0 += xv * y0[kk];
        a1 += xv * y1[kk];
        a2 += xv * y2[kk];
        a3 += xv * y3[kk];
      }
      store_acc(ci + j, a0, accumulate);
      store_acc(ci + j + 1, a1, accumulate);
      store_acc(ci + j + 2, a2, accumulate);
      store_acc(ci + j + 3, a3, accumulate);
    }
    for (; j < n; ++j) {
      const std::int8_t* yj = y + static_cast<std::size_t>(j) * k;
      std::int32_t acc = 0;
      for (int kk = 0; kk < k; ++kk) acc += std::int32_t(xi[kk]) * yj[kk];
      store_acc(ci + j, acc, accumulate);
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 backend

#if defined(__AVX2__) && defined(__FMA__)

inline std::int32_t hsum_epi32(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

inline __m256i load_epi8_as_epi16(const std::int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

void avx2_block(const std::int8_t* x, const std::int8_t* y, std::int32_t* c,
                int i0, int i1, int k, int n, bool accumulate) {
  const int k16 = k & ~15;
  for (int i = i0; i < i1; ++i) {
    const std::int8_t* xi = x + static_cast<std::size_t>(i) * k;
    std::int32_t* ci = c + static_cast<std::size_t>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* y0 = y + static_cast<std::size_t>(j) * k;
      const std::int8_t* y1 = y0 + k;
      const std::int8_t* y2 = y1 + k;
      const std::int8_t* y3 = y2 + k;
      __m256i a0 = _mm256_setzero_si256();
      __m256i a1 = _mm256_setzero_si256();
      __m256i a2 = _mm256_setzero_si256();
      __m256i a3 = _mm256_setzero_si256();
      for (int kk = 0; kk < k16; kk += 16) {
        const __m256i xs = load_epi8_as_epi16(xi + kk);
        a0 = _mm256_add_epi32(
            a0, _mm256_madd_epi16(xs, load_epi8_as_epi16(y0 + kk)));
        a1 = _mm256_add_epi32(
            a1, _mm256_madd_epi16(xs, load_epi8_as_epi16(y1 + kk)));
        a2 = _mm256_add_epi32(
            a2, _mm256_madd_epi16(xs, load_epi8_as_epi16(y2 + kk)));
        a3 = _mm256_add_epi32(
            a3, _mm256_madd_epi16(xs, load_epi8_as_epi16(y3 + kk)));
      }
      std::int32_t s0 = hsum_epi32(a0);
      std::int32_t s1 = hsum_epi32(a1);
      std::int32_t s2 = hsum_epi32(a2);
      std::int32_t s3 = hsum_epi32(a3);
      for (int kk = k16; kk < k; ++kk) {
        const std::int32_t xv = xi[kk];
        s0 += xv * y0[kk];
        s1 += xv * y1[kk];
        s2 += xv * y2[kk];
        s3 += xv * y3[kk];
      }
      store_acc(ci + j, s0, accumulate);
      store_acc(ci + j + 1, s1, accumulate);
      store_acc(ci + j + 2, s2, accumulate);
      store_acc(ci + j + 3, s3, accumulate);
    }
    for (; j < n; ++j) {
      const std::int8_t* yj = y + static_cast<std::size_t>(j) * k;
      __m256i a = _mm256_setzero_si256();
      for (int kk = 0; kk < k16; kk += 16) {
        a = _mm256_add_epi32(a, _mm256_madd_epi16(load_epi8_as_epi16(xi + kk),
                                                  load_epi8_as_epi16(yj + kk)));
      }
      std::int32_t s = hsum_epi32(a);
      for (int kk = k16; kk < k; ++kk) s += std::int32_t(xi[kk]) * yj[kk];
      store_acc(ci + j, s, accumulate);
    }
  }
}

#else

void avx2_block(const std::int8_t*, const std::int8_t*, std::int32_t*, int,
                int, int, int, bool) {
  RP_REQUIRE(false, "avx2 int8 kernel not compiled in");
}

#endif  // __AVX2__ && __FMA__

// ---------------------------------------------------------------------------
// VNNI backend
//
// Exactly one operand is the pre-biased unsigned activation side, selected
// by `act_is_x` (NOT by pointer nullness — an empty staging buffer for
// k = 0 legitimately yields a null data() pointer):
//   act_is_x — output rows are activations via xb (qgemm_act_wgt),
//              compensation comp[j] = row_sums of the weight rows (y side);
//   else     — output columns are activations via yb (qgemm_wgt_act),
//              compensation comp[i] = row_sums of the weight rows (x side).
// The subtracted term is 128 * comp[...]: dot(p + 128, w) = dot(p, w) +
// 128 * sum(w).

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)

void vnni_block(const std::int8_t* x, const std::int8_t* y, std::int32_t* c,
                int i0, int i1, int k, int n, bool accumulate, bool act_is_x,
                const std::uint8_t* xb, const std::uint8_t* yb,
                const std::int32_t* comp) {
  const int k64 = k & ~63;
  const int rem = k - k64;
  const __mmask64 tail =
      rem == 0 ? 0 : (~static_cast<__mmask64>(0)) >> (64 - rem);
  if (act_is_x) {
    // u = activation row (biased), s = weight rows; comp indexed by column.
    for (int i = i0; i < i1; ++i) {
      const std::uint8_t* u = xb + static_cast<std::size_t>(i) * k;
      std::int32_t* ci = c + static_cast<std::size_t>(i) * n;
      int j = 0;
      for (; j + 4 <= n; j += 4) {
        const std::int8_t* s0 = y + static_cast<std::size_t>(j) * k;
        const std::int8_t* s1 = s0 + k;
        const std::int8_t* s2 = s1 + k;
        const std::int8_t* s3 = s2 + k;
        __m512i a0 = _mm512_setzero_si512();
        __m512i a1 = _mm512_setzero_si512();
        __m512i a2 = _mm512_setzero_si512();
        __m512i a3 = _mm512_setzero_si512();
        for (int kk = 0; kk < k64; kk += 64) {
          const __m512i uv = _mm512_loadu_si512(u + kk);
          a0 = _mm512_dpbusd_epi32(a0, uv, _mm512_loadu_si512(s0 + kk));
          a1 = _mm512_dpbusd_epi32(a1, uv, _mm512_loadu_si512(s1 + kk));
          a2 = _mm512_dpbusd_epi32(a2, uv, _mm512_loadu_si512(s2 + kk));
          a3 = _mm512_dpbusd_epi32(a3, uv, _mm512_loadu_si512(s3 + kk));
        }
        if (rem != 0) {
          const __m512i uv = _mm512_maskz_loadu_epi8(tail, u + k64);
          a0 = _mm512_dpbusd_epi32(a0, uv,
                                   _mm512_maskz_loadu_epi8(tail, s0 + k64));
          a1 = _mm512_dpbusd_epi32(a1, uv,
                                   _mm512_maskz_loadu_epi8(tail, s1 + k64));
          a2 = _mm512_dpbusd_epi32(a2, uv,
                                   _mm512_maskz_loadu_epi8(tail, s2 + k64));
          a3 = _mm512_dpbusd_epi32(a3, uv,
                                   _mm512_maskz_loadu_epi8(tail, s3 + k64));
        }
        store_acc(ci + j, _mm512_reduce_add_epi32(a0) - 128 * comp[j],
                  accumulate);
        store_acc(ci + j + 1, _mm512_reduce_add_epi32(a1) - 128 * comp[j + 1],
                  accumulate);
        store_acc(ci + j + 2, _mm512_reduce_add_epi32(a2) - 128 * comp[j + 2],
                  accumulate);
        store_acc(ci + j + 3, _mm512_reduce_add_epi32(a3) - 128 * comp[j + 3],
                  accumulate);
      }
      for (; j < n; ++j) {
        const std::int8_t* sj = y + static_cast<std::size_t>(j) * k;
        __m512i a = _mm512_setzero_si512();
        for (int kk = 0; kk < k64; kk += 64) {
          a = _mm512_dpbusd_epi32(a, _mm512_loadu_si512(u + kk),
                                  _mm512_loadu_si512(sj + kk));
        }
        if (rem != 0) {
          a = _mm512_dpbusd_epi32(a, _mm512_maskz_loadu_epi8(tail, u + k64),
                                  _mm512_maskz_loadu_epi8(tail, sj + k64));
        }
        store_acc(ci + j, _mm512_reduce_add_epi32(a) - 128 * comp[j],
                  accumulate);
      }
    }
  } else {
    // s = weight row (output row), u = activation rows (biased); comp
    // indexed by output row.
    for (int i = i0; i < i1; ++i) {
      const std::int8_t* s = x + static_cast<std::size_t>(i) * k;
      std::int32_t* ci = c + static_cast<std::size_t>(i) * n;
      const std::int32_t base = 128 * comp[i];
      int j = 0;
      for (; j + 4 <= n; j += 4) {
        const std::uint8_t* u0 = yb + static_cast<std::size_t>(j) * k;
        const std::uint8_t* u1 = u0 + k;
        const std::uint8_t* u2 = u1 + k;
        const std::uint8_t* u3 = u2 + k;
        __m512i a0 = _mm512_setzero_si512();
        __m512i a1 = _mm512_setzero_si512();
        __m512i a2 = _mm512_setzero_si512();
        __m512i a3 = _mm512_setzero_si512();
        for (int kk = 0; kk < k64; kk += 64) {
          const __m512i sv = _mm512_loadu_si512(s + kk);
          a0 = _mm512_dpbusd_epi32(a0, _mm512_loadu_si512(u0 + kk), sv);
          a1 = _mm512_dpbusd_epi32(a1, _mm512_loadu_si512(u1 + kk), sv);
          a2 = _mm512_dpbusd_epi32(a2, _mm512_loadu_si512(u2 + kk), sv);
          a3 = _mm512_dpbusd_epi32(a3, _mm512_loadu_si512(u3 + kk), sv);
        }
        if (rem != 0) {
          const __m512i sv = _mm512_maskz_loadu_epi8(tail, s + k64);
          a0 = _mm512_dpbusd_epi32(
              a0, _mm512_maskz_loadu_epi8(tail, u0 + k64), sv);
          a1 = _mm512_dpbusd_epi32(
              a1, _mm512_maskz_loadu_epi8(tail, u1 + k64), sv);
          a2 = _mm512_dpbusd_epi32(
              a2, _mm512_maskz_loadu_epi8(tail, u2 + k64), sv);
          a3 = _mm512_dpbusd_epi32(
              a3, _mm512_maskz_loadu_epi8(tail, u3 + k64), sv);
        }
        store_acc(ci + j, _mm512_reduce_add_epi32(a0) - base, accumulate);
        store_acc(ci + j + 1, _mm512_reduce_add_epi32(a1) - base, accumulate);
        store_acc(ci + j + 2, _mm512_reduce_add_epi32(a2) - base, accumulate);
        store_acc(ci + j + 3, _mm512_reduce_add_epi32(a3) - base, accumulate);
      }
      for (; j < n; ++j) {
        const std::uint8_t* uj = yb + static_cast<std::size_t>(j) * k;
        __m512i a = _mm512_setzero_si512();
        for (int kk = 0; kk < k64; kk += 64) {
          a = _mm512_dpbusd_epi32(a, _mm512_loadu_si512(uj + kk),
                                  _mm512_loadu_si512(s + kk));
        }
        if (rem != 0) {
          a = _mm512_dpbusd_epi32(a, _mm512_maskz_loadu_epi8(tail, uj + k64),
                                  _mm512_maskz_loadu_epi8(tail, s + k64));
        }
        store_acc(ci + j, _mm512_reduce_add_epi32(a) - base, accumulate);
      }
    }
  }
}

#else

void vnni_block(const std::int8_t*, const std::int8_t*, std::int32_t*, int,
                int, int, int, bool, bool, const std::uint8_t*,
                const std::uint8_t*, const std::int32_t*) {
  RP_REQUIRE(false, "vnni int8 kernel not compiled in");
}

#endif  // AVX-512 VNNI

// ---------------------------------------------------------------------------
// Panel driver

inline void bias_codes(const std::int8_t* p, std::uint8_t* u,
                       std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    u[i] = static_cast<std::uint8_t>(p[i] ^ 0x80);  // p + 128
  }
}

void block_rows(Backend be, const std::int8_t* x, const std::int8_t* y,
                std::int32_t* c, int i0, int i1, int k, int n, bool accumulate,
                bool act_is_x, const std::uint8_t* xb, const std::uint8_t* yb,
                const std::int32_t* comp) {
  switch (be) {
    case Backend::kNaive:
      ref::qgemm_nt(x + static_cast<std::size_t>(i0) * k, y,
                    c + static_cast<std::size_t>(i0) * n, i1 - i0, k, n,
                    accumulate);
      break;
    case Backend::kPortable:
      portable_block(x, y, c, i0, i1, k, n, accumulate);
      break;
    case Backend::kAvx2:
      avx2_block(x, y, c, i0, i1, k, n, accumulate);
      break;
    case Backend::kVnni:
      vnni_block(x, y, c, i0, i1, k, n, accumulate, act_is_x, xb, yb, comp);
      break;
  }
}

// All public int8 entry points funnel here.  x is the output-row operand
// (shared across panels), y/c advance by the given strides per panel;
// act_is_x says which operand holds the activations (only the VNNI biasing
// cares).  comp = weight-side row sums, required by contract.
void run_panels(const std::int8_t* x, const std::int8_t* y, std::int32_t* c,
                int m, int k, int n, int batch, std::int64_t y_stride,
                std::int64_t c_stride, bool accumulate, bool act_is_x,
                const std::int32_t* comp) {
  RP_REQUIRE(m >= 0 && k >= 0 && n >= 0 && batch >= 1,
             "qgemm: negative dimension");
  RP_REQUIRE(k <= kMaxK, "qgemm: k too large for exact int32 accumulation");
  RP_REQUIRE(comp != nullptr, "qgemm: weight row sums are required");
  if (m == 0 || n == 0) return;

  const Backend be = active_backend();
  int threads = gemm_threads();
  const long long work = 1LL * m * n * k * batch;
  if (work < (1LL << 16)) threads = 1;  // shape-based, so deterministic

  // Split m into row chunks only when the batch alone can't feed the pool;
  // any partition gives identical bits (exact contract), so the chunk
  // count is a pure load-balancing choice.
  int chunks = 1;
  if (threads > 1 && batch < threads) {
    chunks = (threads * 2 + batch - 1) / batch;
    if (chunks > m) chunks = m;
  }
  const int chunk_rows = (m + chunks - 1) / chunks;

  // VNNI staging: bias the activation operand to unsigned up front when it
  // is shared across tasks (x side, or all panels when row chunks split a
  // panel between tasks); otherwise each panel's task biases its own.
  // thread_local staging keeps the biased copies out of the allocator on
  // the hot eval path (one qgemm call per layer per forward); capacity
  // sticks at the largest panel seen.  Safe because callers never nest
  // qgemm entries and worker tasks only read through the raw pointer.
  const bool vnni = be == Backend::kVnni;
  static thread_local std::vector<std::uint8_t> biased;
  const std::uint8_t* xb = nullptr;
  const std::uint8_t* yb_all = nullptr;
  const std::size_t panel_bytes = static_cast<std::size_t>(n) * k;
  if (vnni && act_is_x) {
    biased.resize(static_cast<std::size_t>(m) * k);
    bias_codes(x, biased.data(), biased.size());
    xb = biased.data();
  } else if (vnni && chunks > 1) {
    biased.resize(static_cast<std::size_t>(batch) * panel_bytes);
    for (int b = 0; b < batch; ++b) {
      bias_codes(y + b * y_stride, biased.data() + b * panel_bytes,
                 panel_bytes);
    }
    yb_all = biased.data();
  }

  const int tasks = batch * chunks;
  parallel_for(tasks, threads, [&](int t) {
    const int b = t / chunks;
    const int ci = t % chunks;
    const int i0 = ci * chunk_rows;
    const int i1 = i0 + chunk_rows < m ? i0 + chunk_rows : m;
    if (i0 >= i1) return;
    const std::int8_t* yp = y + b * y_stride;
    std::int32_t* cp = c + b * c_stride;
    const std::uint8_t* yb = nullptr;
    static thread_local std::vector<std::uint8_t> local;
    if (vnni && !act_is_x) {
      if (yb_all != nullptr) {
        yb = yb_all + b * panel_bytes;
      } else {
        if (local.size() < panel_bytes) local.resize(panel_bytes);
        bias_codes(yp, local.data(), panel_bytes);
        yb = local.data();
      }
    }
    block_rows(be, x, yp, cp, i0, i1, k, n, accumulate, act_is_x, xb, yb,
               comp);
  });
}

// ---------------------------------------------------------------------------
// Fused int8 convolution (qconv)
//
// Position grid: ConvPlan / build_planes (conv_plan.h), shared with the
// float kernels::conv.
//
// Tile layout.  A tile is 16 consecutive grid positions of one sample; its
// codes are stored [K4][16 positions][4 taps] (K4 = ceil(K/4)) and biased
// to unsigned (code ^ 0x80), so each 32-bit lane of a 64-byte group is one
// position's dpbusd operand.  Weights are packed per call as int32 words
// [ceil(cout/8)][K4][8 channels] of 4 codes each, zero past K and cout, so
// taps past K (which carry arbitrary codes) and channels past cout add 0.
//
// Bit identity with quantize_rows -> qgemm_wgt_act -> requantize: each
// lane's amax is the same NaN-discarding max of |v| over the same patch,
// every element then takes quantize_rows' exact IEEE sequence in its own
// lane, the int32 dot product is exact, and the epilogue is requantize's
// single fma.

using detail::build_planes;
using detail::ConvPlan;
using detail::kChunkBytes;
using detail::kTile;

constexpr int kChBlock = 8;   // output channels per microkernel call

// Weight words: [ceil(cout/8)][k4][8] int32, 4 codes each, zero-padded.
void pack_weights(const ConvPlan& p, const std::int8_t* wgt,
                  std::vector<std::int32_t>& out) {
  const int blocks = (p.s.cout + kChBlock - 1) / kChBlock;
  out.assign(static_cast<std::size_t>(blocks) * p.k4 * kChBlock, 0);
  const int full = p.k / 4, rem = p.k % 4;
  for (int co = 0; co < p.s.cout; ++co) {
    const std::int8_t* row = wgt + static_cast<std::size_t>(co) * p.k;
    std::int32_t* dst =
        out.data() +
        static_cast<std::size_t>(co / kChBlock) * p.k4 * kChBlock +
        co % kChBlock;
    for (int g = 0; g < full; ++g)
      std::memcpy(dst + static_cast<std::size_t>(g) * kChBlock, row + 4 * g, 4);
    if (rem != 0)
      std::memcpy(dst + static_cast<std::size_t>(full) * kChBlock,
                  row + 4 * full, static_cast<std::size_t>(rem));
  }
}

// Output of one tile in the requantize epilogue: lanes of `mask` go, in
// order, to consecutive output indices from `dst`.
struct TileOut {
  const float* pscale;  // [16] activation scales of the tile's positions
  std::uint16_t mask;
  float* dst;           // y + sample offset + tile_out (channel 0)
  std::size_t spatial;  // channel stride of y
};

// --- Stage 1: quantize + pack ----------------------------------------------

// Scalar reference pack (naive/portable backends): quantize_rows' scalar
// sequence, one position at a time.
void pack_tile_scalar(const ConvPlan& p, const float* src, std::uint8_t* dst,
                      float* pscale) {
  for (int l = 0; l < kTile; ++l) {
    const float* sl = src + l;
    float amax = 0.0f;
    for (int t = 0; t < p.k; ++t)
      amax = std::fmax(amax,
                       std::fabs(sl[p.taps[static_cast<std::size_t>(t)]]));
    const bool zero = amax == 0.0f;  // all-zero (or all-NaN) patch
    const float inv = 127.0f / amax;  // unused when zero: codes stay 0
    pscale[l] = amax / 127.0f;
    for (int t = 0; t < p.k4 * 4; ++t) {
      std::int8_t q = 0;
      if (!zero && t < p.k) {
        const float v = std::fmin(
            127.0f,
            std::fmax(-127.0f, sl[p.taps[static_cast<std::size_t>(t)]] * inv));
        q = static_cast<std::int8_t>(
            static_cast<std::int32_t>(std::nearbyint(v)));
      }
      dst[static_cast<std::size_t>(t / 4) * 64 +
          static_cast<std::size_t>(l) * 4 + static_cast<std::size_t>(t % 4)] =
          static_cast<std::uint8_t>(static_cast<std::uint8_t>(q) ^ 0x80);
    }
  }
}

#if defined(__AVX2__) && defined(__FMA__)

// Eight lanes (positions) of the pack; `dst` is the tile's byte base plus
// 32 * half.  The lane ops are quantize_rows' AVX2 sequence (see there for
// why vmaxps/vminps operand order reproduces fmaxf/fminf's NaN handling).
void pack_half_avx2(const ConvPlan& p, const float* src, std::uint8_t* dst,
                    float* pscale) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const std::int32_t* taps = p.taps.data();
  const int k = p.k, k4 = p.k4;  // locals: the byte stores below alias p
  // Four independent running maxima hide vmaxps latency; NaN never enters
  // one (a NaN load keeps the running value), so merging them is exact.
  __m256 m[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(),
                 _mm256_setzero_ps()};
  int t = 0;
  for (; t + 4 <= k; t += 4)
    for (int u = 0; u < 4; ++u)
      m[u] = _mm256_max_ps(
          _mm256_and_ps(_mm256_loadu_ps(src + taps[t + u]), abs_mask), m[u]);
  for (; t < k; ++t)
    m[0] = _mm256_max_ps(
        _mm256_and_ps(_mm256_loadu_ps(src + taps[t]), abs_mask), m[0]);
  const __m256 vmax =
      _mm256_max_ps(_mm256_max_ps(m[0], m[1]), _mm256_max_ps(m[2], m[3]));
  const __m256 zero = _mm256_cmp_ps(vmax, _mm256_setzero_ps(), _CMP_EQ_OQ);
  const __m256 inv = _mm256_div_ps(_mm256_set1_ps(127.0f), vmax);
  _mm256_storeu_ps(pscale, _mm256_div_ps(vmax, _mm256_set1_ps(127.0f)));
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80808080u));
  const auto quant = [&](int t) {
    const __m256 v = _mm256_mul_ps(_mm256_loadu_ps(src + taps[t]), inv);
    return _mm256_cvtps_epi32(_mm256_min_ps(_mm256_max_ps(v, lo), hi));
  };
  for (int g = 0; g < k4; ++g) {
    // Four codes in [-127, 127] per lane -> one biased word (exact mod 2^32).
    __m256i w = _mm256_add_epi32(quant(4 * g), bias);
    w = _mm256_add_epi32(w, _mm256_slli_epi32(quant(4 * g + 1), 8));
    w = _mm256_add_epi32(w, _mm256_slli_epi32(quant(4 * g + 2), 16));
    w = _mm256_add_epi32(w, _mm256_slli_epi32(quant(4 * g + 3), 24));
    // All-zero (or all-NaN) patches: scale 0 (from amax/127) and code 0.
    w = _mm256_blendv_epi8(w, bias, _mm256_castps_si256(zero));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + static_cast<std::size_t>(g) * 64), w);
  }
}

void pack_tile_avx2(const ConvPlan& p, const float* src, std::uint8_t* dst,
                    float* pscale) {
  pack_half_avx2(p, src, dst, pscale);
  pack_half_avx2(p, src + 8, dst + 32, pscale + 8);
}

#else

void pack_tile_avx2(const ConvPlan&, const float*, std::uint8_t*, float*) {
  RP_REQUIRE(false, "avx2 int8 kernel not compiled in");
}

#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)

// Sixteen lanes of pack_half_avx2's sequence (AVX-512F ops only).
void pack_tile_avx512(const ConvPlan& p, const float* src, std::uint8_t* dst,
                      float* pscale) {
  const std::int32_t* taps = p.taps.data();
  const int k = p.k, k4 = p.k4;  // locals: the byte stores below alias p
  // Four independent running maxima hide vmaxps latency; NaN never enters
  // one (a NaN load keeps the running value), so merging them is exact.
  __m512 m[4] = {_mm512_setzero_ps(), _mm512_setzero_ps(), _mm512_setzero_ps(),
                 _mm512_setzero_ps()};
  int t = 0;
  for (; t + 4 <= k; t += 4)
    for (int u = 0; u < 4; ++u)
      m[u] = _mm512_max_ps(_mm512_abs_ps(_mm512_loadu_ps(src + taps[t + u])),
                           m[u]);
  for (; t < k; ++t)
    m[0] = _mm512_max_ps(_mm512_abs_ps(_mm512_loadu_ps(src + taps[t])), m[0]);
  const __m512 vmax =
      _mm512_max_ps(_mm512_max_ps(m[0], m[1]), _mm512_max_ps(m[2], m[3]));
  const __mmask16 zero =
      _mm512_cmp_ps_mask(vmax, _mm512_setzero_ps(), _CMP_EQ_OQ);
  const __m512 inv = _mm512_div_ps(_mm512_set1_ps(127.0f), vmax);
  _mm512_storeu_ps(pscale, _mm512_div_ps(vmax, _mm512_set1_ps(127.0f)));
  const __m512 lo = _mm512_set1_ps(-127.0f);
  const __m512 hi = _mm512_set1_ps(127.0f);
  const __m512i bias = _mm512_set1_epi32(static_cast<int>(0x80808080u));
  const auto quant = [&](int t) {
    const __m512 v = _mm512_mul_ps(_mm512_loadu_ps(src + taps[t]), inv);
    return _mm512_cvtps_epi32(_mm512_min_ps(_mm512_max_ps(v, lo), hi));
  };
  for (int g = 0; g < k4; ++g) {
    __m512i w = _mm512_add_epi32(quant(4 * g), bias);
    w = _mm512_add_epi32(w, _mm512_slli_epi32(quant(4 * g + 1), 8));
    w = _mm512_add_epi32(w, _mm512_slli_epi32(quant(4 * g + 2), 16));
    w = _mm512_add_epi32(w, _mm512_slli_epi32(quant(4 * g + 3), 24));
    w = _mm512_mask_mov_epi32(w, zero, bias);
    _mm512_storeu_si512(dst + static_cast<std::size_t>(g) * 64, w);
  }
}

#else

void pack_tile_avx512(const ConvPlan&, const float*, std::uint8_t*, float*) {
  RP_REQUIRE(false, "vnni int8 kernel not compiled in");
}

#endif  // AVX-512 VNNI

// --- Stage 2: microkernel + requantize epilogue ----------------------------

// Scalar reference (naive/portable): unbiased codes dot the original weight
// rows, then requantize's fma per stored position.
void conv_tile_scalar(const ConvPlan& p, const std::uint8_t* act,
                      const std::int8_t* wgt, const float* wscale,
                      const float* bias, const TileOut& o) {
  for (int co = 0; co < p.s.cout; ++co) {
    const std::int8_t* w = wgt + static_cast<std::size_t>(co) * p.k;
    std::int32_t acc[kTile] = {};
    for (int t = 0; t < p.k; ++t) {
      const std::uint8_t* at =
          act + static_cast<std::size_t>(t / 4) * 64 + t % 4;
      for (int l = 0; l < kTile; ++l)
        acc[l] += (static_cast<std::int32_t>(at[l * 4]) - 128) * w[t];
    }
    const float base = bias != nullptr ? bias[co] : 0.0f;
    float* dst = o.dst + static_cast<std::size_t>(co) * o.spatial;
    for (int l = 0, n = 0; l < kTile; ++l) {
      if (((o.mask >> l) & 1u) == 0) continue;
      dst[n++] = __builtin_fmaf(static_cast<float>(acc[l]),
                                wscale[co] * o.pscale[l], base);
    }
  }
}

#if defined(__AVX2__) && defined(__FMA__)

// 4 channels x 8 positions per pass: a 64-byte code group's half is two
// 16-byte quarters (4 positions x 4 taps), zero-extended to int16 and
// madd'ed against the 4 weights broadcast as int16 — each int32 lane then
// holds one position's partial sum over 2 taps; hadd folds the pairs.
void conv_tile_avx2(const ConvPlan& p, const std::uint8_t* act,
                    const std::int32_t* wpack, const std::int32_t* row_sums,
                    const float* wscale, const float* bias, const TileOut& o) {
  for (int half = 0; half < 2; ++half) {
    const __m256 ps = _mm256_loadu_ps(o.pscale + 8 * half);
    const unsigned lanes = (o.mask >> (8 * half)) & 0xFFu;
    if (lanes == 0) continue;
    const int skip = half == 0 ? 0 : std::popcount(o.mask & 0xFFu);
    for (int c0 = 0; c0 < p.s.cout; c0 += 4) {
      const std::int32_t* wb =
          wpack + static_cast<std::size_t>(c0 / kChBlock) * p.k4 * kChBlock +
          c0 % kChBlock;
      __m256i acc[4][2];
      for (auto& a : acc) a[0] = a[1] = _mm256_setzero_si256();
      for (int g = 0; g < p.k4; ++g) {
        const __m256i raw = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            act + static_cast<std::size_t>(g) * 64 + 32 * half));
        const __m256i a0 = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(raw));
        const __m256i a1 =
            _mm256_cvtepu8_epi16(_mm256_extracti128_si256(raw, 1));
        const std::int32_t* wg = wb + static_cast<std::size_t>(g) * kChBlock;
        for (int c = 0; c < 4; ++c) {
          const __m256i w = _mm256_cvtepi8_epi16(_mm_set1_epi32(wg[c]));
          acc[c][0] = _mm256_add_epi32(acc[c][0], _mm256_madd_epi16(a0, w));
          acc[c][1] = _mm256_add_epi32(acc[c][1], _mm256_madd_epi16(a1, w));
        }
      }
      for (int c = 0; c < 4 && c0 + c < p.s.cout; ++c) {
        const int co = c0 + c;
        const __m256i sum = _mm256_permute4x64_epi64(
            _mm256_hadd_epi32(acc[c][0], acc[c][1]), 0xD8);
        const __m256 f = _mm256_cvtepi32_ps(
            _mm256_sub_epi32(sum, _mm256_set1_epi32(128 * row_sums[co])));
        const __m256 y = _mm256_fmadd_ps(
            f, _mm256_mul_ps(_mm256_set1_ps(wscale[co]), ps),
            _mm256_set1_ps(bias != nullptr ? bias[co] : 0.0f));
        alignas(32) float tmp[8];
        _mm256_store_ps(tmp, y);
        float* dst = o.dst + static_cast<std::size_t>(co) * o.spatial + skip;
        for (int l = 0, n = 0; l < 8; ++l)
          if ((lanes >> l) & 1u) dst[n++] = tmp[l];
      }
    }
  }
}

#else

void conv_tile_avx2(const ConvPlan&, const std::uint8_t*, const std::int32_t*,
                    const std::int32_t*, const float*, const float*,
                    const TileOut&) {
  RP_REQUIRE(false, "avx2 int8 kernel not compiled in");
}

#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)

// 8 channels x 16 positions in 8 accumulators: per code group, one 64-byte
// activation load feeds 8 dpbusd against broadcast weight words; no
// horizontal reduction.  The epilogue compresses the valid lanes to the
// front and stores them as one contiguous run.
void conv_tile_vnni(const ConvPlan& p, const std::uint8_t* act,
                    const std::int32_t* wpack, const std::int32_t* row_sums,
                    const float* wscale, const float* bias, const TileOut& o) {
  const __m512 ps = _mm512_loadu_ps(o.pscale);
  const __mmask16 store =
      static_cast<__mmask16>((1u << std::popcount(o.mask)) - 1u);
  for (int c0 = 0; c0 < p.s.cout; c0 += kChBlock) {
    const std::int32_t* wb =
        wpack + static_cast<std::size_t>(c0 / kChBlock) * p.k4 * kChBlock;
    __m512i acc[kChBlock];
    for (auto& a : acc) a = _mm512_setzero_si512();
    for (int g = 0; g < p.k4; ++g) {
      const __m512i a =
          _mm512_loadu_si512(act + static_cast<std::size_t>(g) * 64);
      const std::int32_t* wg = wb + static_cast<std::size_t>(g) * kChBlock;
#pragma GCC unroll 8
      for (int c = 0; c < kChBlock; ++c)
        acc[c] = _mm512_dpbusd_epi32(acc[c], a, _mm512_set1_epi32(wg[c]));
    }
    const int n = std::min(kChBlock, p.s.cout - c0);
    for (int c = 0; c < n; ++c) {
      const int co = c0 + c;
      const __m512 f = _mm512_cvtepi32_ps(
          _mm512_sub_epi32(acc[c], _mm512_set1_epi32(128 * row_sums[co])));
      const __m512 y = _mm512_fmadd_ps(
          f, _mm512_mul_ps(_mm512_set1_ps(wscale[co]), ps),
          _mm512_set1_ps(bias != nullptr ? bias[co] : 0.0f));
      _mm512_mask_storeu_ps(o.dst + static_cast<std::size_t>(co) * o.spatial,
                            store, _mm512_maskz_compress_ps(o.mask, y));
    }
  }
}

#else

void conv_tile_vnni(const ConvPlan&, const std::uint8_t*, const std::int32_t*,
                    const std::int32_t*, const float*, const float*,
                    const TileOut&) {
  RP_REQUIRE(false, "vnni int8 kernel not compiled in");
}

#endif  // AVX-512 VNNI

// Per-thread qconv scratch; capacity sticks at the largest call seen (the
// thread_local staging discipline of run_panels).  Pool tasks only touch
// it through the calling thread's raw pointers.
struct ConvScratch {
  ConvPlan plan;
  std::vector<float> planes;         // phase planes of one chunk + slack
  std::vector<std::uint8_t> codes;   // packed tiles of one chunk
  std::vector<float> pscale;         // [chunk tiles * 16]
  std::vector<std::int32_t> wpack;   // packed weight words
};

std::int64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API

int gemm_threads() {
  const int cur = g_threads.load(std::memory_order_relaxed);
  if (cur > 0) return cur;
  int resolved = 1;
  if (const char* env = std::getenv("ROWPRESS_GEMM_THREADS")) {
    resolved = std::atoi(env);
    if (resolved < 1) resolved = 1;
  }
  g_threads.store(resolved, std::memory_order_relaxed);
  return resolved;
}

void set_gemm_threads(int n) {
  g_threads.store(n < 1 ? 1 : n, std::memory_order_relaxed);
}

void quantize_rows(const float* x, std::int8_t* q, float* scale, int rows,
                   int k) {
#if defined(__AVX2__) && defined(__FMA__)
  // Eight lanes of the exact IEEE sequence the scalar build pins.
  // vmaxps/vminps return their SECOND operand when a lane compares
  // unordered, so keeping the possibly-NaN value in the first operand
  // reproduces fmaxf/fminf's NaN-discarding bit-for-bit, and
  // vcvtps2dq rounds with the MXCSR mode — the same current-mode,
  // ties-to-even rounding nearbyintf performs.  The activation
  // quantization edge is hot (one full pass over every im2col panel per
  // forward) and im2col rows are short (a few dozen elements for the
  // early conv stages), so the remainder runs through the same SIMD
  // block via a zero-padded buffer instead of a scalar libm tail:
  // padded zeros neither raise the row max nor survive the store (only
  // `rem` output bytes are copied back).
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  const int rem = k & 7;
  const int kmain = k - rem;
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + static_cast<std::size_t>(r) * k;
    std::int8_t* qr = q + static_cast<std::size_t>(r) * k;
    alignas(32) float tail[8];
    if (rem != 0) {
      _mm256_store_ps(tail, _mm256_setzero_ps());
      std::memcpy(tail, xr + kmain, sizeof(float) * static_cast<unsigned>(rem));
    }
    __m256 vmax = _mm256_setzero_ps();
    for (int i = 0; i + 8 <= k; i += 8) {
      const __m256 v = _mm256_and_ps(_mm256_loadu_ps(xr + i), abs_mask);
      vmax = _mm256_max_ps(v, vmax);  // NaN lane keeps the running max
    }
    if (rem != 0) {
      const __m256 v = _mm256_and_ps(_mm256_load_ps(tail), abs_mask);
      vmax = _mm256_max_ps(v, vmax);
    }
    // Horizontal reduce with a shuffle tree: every lane holds an |x| with
    // NaNs already discarded, so the max is order-independent and this is
    // bit-identical to the scalar left-to-right fmaxf chain.
    __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vmax),
                           _mm256_extractf128_ps(vmax, 1));
    m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
    const float amax = _mm_cvtss_f32(m4);
    if (amax == 0.0f) {  // all-zero (or all-NaN) row
      scale[r] = 0.0f;
      std::memset(qr, 0, static_cast<std::size_t>(k));
      continue;
    }
    const float inv = 127.0f / amax;
    scale[r] = amax / 127.0f;
    const __m256 vinv = _mm256_set1_ps(inv);
    const auto quant8 = [&](const float* src) {
      const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(src), vinv);
      // max(t, -127) sends NaN lanes to -127, matching the scalar clamp.
      const __m256 v = _mm256_min_ps(_mm256_max_ps(t, lo), hi);
      const __m256i vi = _mm256_cvtps_epi32(v);
      const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(vi),
                                          _mm256_extracti128_si256(vi, 1));
      return _mm_packs_epi16(p16, p16);
    };
    int i = 0;
    for (; i + 8 <= k; i += 8)
      _mm_storel_epi64(reinterpret_cast<__m128i*>(qr + i), quant8(xr + i));
    if (rem != 0) {
      alignas(16) std::int8_t qt[16];
      _mm_store_si128(reinterpret_cast<__m128i*>(qt), quant8(tail));
      std::memcpy(qr + i, qt, static_cast<unsigned>(rem));
    }
  }
#else
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + static_cast<std::size_t>(r) * k;
    std::int8_t* qr = q + static_cast<std::size_t>(r) * k;
    float amax = 0.0f;
    for (int i = 0; i < k; ++i) amax = std::fmax(amax, std::fabs(xr[i]));
    if (amax == 0.0f) {  // all-zero (or all-NaN) row
      scale[r] = 0.0f;
      std::memset(qr, 0, static_cast<std::size_t>(k));
      continue;
    }
    const float inv = 127.0f / amax;
    scale[r] = amax / 127.0f;
    for (int i = 0; i < k; ++i) {
      // fmaxf-then-fminf maps NaN (e.g. 0 * Inf when amax is Inf) to -127
      // without an undefined float->int cast; nearbyintf rounds ties to
      // even in the default FP environment.
      const float v = std::fmin(127.0f, std::fmax(-127.0f, xr[i] * inv));
      qr[i] = static_cast<std::int8_t>(
          static_cast<std::int32_t>(std::nearbyint(v)));
    }
  }
#endif
}

void requantize(const std::int32_t* acc, const float* row_scale,
                const float* col_scale, const float* bias, BiasAxis bias_axis,
                float* y, int m, int n) {
  for (int i = 0; i < m; ++i) {
    const float rs = row_scale != nullptr ? row_scale[i] : 1.0f;
    const float row_base =
        bias_axis == BiasAxis::kPerRow && bias != nullptr ? bias[i] : 0.0f;
    const std::int32_t* ai = acc + static_cast<std::size_t>(i) * n;
    float* yi = y + static_cast<std::size_t>(i) * n;
    int j = 0;
#if defined(__AVX2__) && defined(__FMA__)
    // vcvtdq2ps and vfmadd are the single-rounded operations the scalar
    // tail performs, so the lanes are bit-identical by construction.
    const __m256 vrs = _mm256_set1_ps(rs);
    const __m256 vbase = _mm256_set1_ps(row_base);
    const bool col_bias = bias_axis == BiasAxis::kPerCol && bias != nullptr;
    for (; j + 8 <= n; j += 8) {
      const __m256 a = _mm256_cvtepi32_ps(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ai + j)));
      const __m256 s = col_scale != nullptr
                           ? _mm256_mul_ps(vrs, _mm256_loadu_ps(col_scale + j))
                           : vrs;
      const __m256 base = col_bias ? _mm256_loadu_ps(bias + j) : vbase;
      _mm256_storeu_ps(yi + j, _mm256_fmadd_ps(a, s, base));
    }
#endif
    for (; j < n; ++j) {
      const float s = col_scale != nullptr ? rs * col_scale[j] : rs;
      const float base =
          bias_axis == BiasAxis::kPerCol && bias != nullptr ? bias[j]
                                                            : row_base;
      yi[j] = __builtin_fmaf(static_cast<float>(ai[j]), s, base);
    }
  }
}

void qgemm_act_wgt(const std::int8_t* act, const std::int8_t* wgt,
                   const std::int32_t* wgt_row_sums, std::int32_t* c, int m,
                   int k, int n, bool accumulate) {
  run_qtimed([&] {
    run_panels(act, wgt, c, m, k, n, /*batch=*/1, /*y_stride=*/0,
               /*c_stride=*/0, accumulate, /*act_is_x=*/true, wgt_row_sums);
  });
}

void qgemm_wgt_act(const std::int8_t* wgt, const std::int8_t* act,
                   const std::int32_t* wgt_row_sums, std::int32_t* c, int m,
                   int k, int n, bool accumulate) {
  run_qtimed([&] {
    run_panels(wgt, act, c, m, k, n, /*batch=*/1, /*y_stride=*/0,
               /*c_stride=*/0, accumulate, /*act_is_x=*/false, wgt_row_sums);
  });
}

void qgemm_wgt_act_batched(const std::int8_t* wgt, const std::int8_t* act,
                           const std::int32_t* wgt_row_sums, std::int32_t* c,
                           int m, int k, int n, int batch,
                           std::int64_t act_stride, std::int64_t c_stride,
                           bool accumulate) {
  run_qtimed([&] {
    run_panels(wgt, act, c, m, k, n, batch, act_stride, c_stride, accumulate,
               /*act_is_x=*/false, wgt_row_sums);
  });
}

void qconv(const float* x, const std::int8_t* wgt,
           const std::int32_t* wgt_row_sums, const float* wgt_scales,
           const float* bias, const ConvShape& shape, float* y) {
  RP_REQUIRE(shape.batch >= 1 && shape.cin >= 1 && shape.cout >= 1 &&
                 shape.kh >= 1 && shape.kw >= 1 && shape.stride_h >= 1 &&
                 shape.stride_w >= 1 && shape.pad_h >= 0 && shape.pad_w >= 0,
             "qconv: bad shape");
  RP_REQUIRE(shape.out_h() > 0 && shape.out_w() > 0,
             "qconv: output would be empty");
  RP_REQUIRE(shape.patch() <= kMaxK,
             "qconv: patch too large for exact int32 accumulation");
  RP_REQUIRE(wgt_row_sums != nullptr && wgt_scales != nullptr,
             "qconv: weight row sums and scales are required");

  // Raw pointers/references into the calling thread's scratch: a pool
  // task naming the thread_local itself would get its own thread's one.
  static thread_local ConvScratch scratch;
  ConvPlan& plan = scratch.plan;
  plan.reset(shape);
  const Backend be = active_backend();
  telemetry::Histogram* pack_hist = detail::bound_qpack_histogram();
  telemetry::Histogram* gemm_hist = detail::bound_qgemm_histogram();
  const bool timed = pack_hist != nullptr || gemm_hist != nullptr;
  std::int64_t pack_ns = 0, gemm_ns = 0;
  auto t0 = timed ? std::chrono::steady_clock::now()
                  : std::chrono::steady_clock::time_point{};

  const bool simd = be == Backend::kVnni || be == Backend::kAvx2;
  if (simd) pack_weights(plan, wgt, scratch.wpack);
  const std::int32_t* wpack = scratch.wpack.data();

  int threads = gemm_threads();
  const long long work = 1LL * shape.batch * plan.oh * plan.ow * plan.k *
                         shape.cout;
  if (work < (1LL << 16)) threads = 1;  // shape-based, so deterministic

  const std::size_t tile_bytes = plan.tile_bytes();
  const std::size_t sample_bytes =
      static_cast<std::size_t>(plan.tiles) * tile_bytes;
  const int per_chunk = static_cast<int>(std::clamp<std::size_t>(
      kChunkBytes / sample_bytes, 1, static_cast<std::size_t>(shape.batch)));
  const std::size_t planes_size =
      static_cast<std::size_t>(per_chunk) * plan.sample_stride;
  if (scratch.planes.size() < planes_size) scratch.planes.resize(planes_size);
  const std::size_t chunk_tiles =
      static_cast<std::size_t>(per_chunk) * plan.tiles;
  if (scratch.codes.size() < chunk_tiles * tile_bytes)
    scratch.codes.resize(chunk_tiles * tile_bytes);
  if (scratch.pscale.size() < chunk_tiles * kTile)
    scratch.pscale.resize(chunk_tiles * kTile);
  float* planes = scratch.planes.data();
  std::uint8_t* codes = scratch.codes.data();
  float* pscale = scratch.pscale.data();

  const std::size_t in_sample =
      static_cast<std::size_t>(shape.cin) * shape.h * shape.w;
  const std::size_t spatial = static_cast<std::size_t>(plan.oh) * plan.ow;
  const std::size_t out_sample = static_cast<std::size_t>(shape.cout) * spatial;
  if (timed) pack_ns += elapsed_ns(t0);

  for (int b0 = 0; b0 < shape.batch; b0 += per_chunk) {
    const int nb = std::min(per_chunk, shape.batch - b0);
    if (timed) t0 = std::chrono::steady_clock::now();
    parallel_for(nb, threads, [&](int bl) {
      float* src = planes + static_cast<std::size_t>(bl) * plan.sample_stride;
      build_planes(plan, x + static_cast<std::size_t>(b0 + bl) * in_sample,
                   src);
      for (int t = 0; t < plan.tiles; ++t) {
        const std::size_t gt = static_cast<std::size_t>(bl) * plan.tiles + t;
        const float* s = src + static_cast<std::size_t>(t) * kTile;
        std::uint8_t* dst = codes + gt * tile_bytes;
        float* ps = pscale + gt * kTile;
        switch (be) {
          case Backend::kNaive:
          case Backend::kPortable:
            pack_tile_scalar(plan, s, dst, ps);
            break;
          case Backend::kAvx2:
            pack_tile_avx2(plan, s, dst, ps);
            break;
          case Backend::kVnni:
            pack_tile_avx512(plan, s, dst, ps);
            break;
        }
      }
    });
    if (timed) {
      pack_ns += elapsed_ns(t0);
      t0 = std::chrono::steady_clock::now();
    }
    const int ntiles = nb * plan.tiles;
    const int tasks = threads > 1 ? std::min(ntiles, threads * 4) : 1;
    parallel_for(tasks, threads, [&](int task) {
      const int g0 = static_cast<int>(1LL * ntiles * task / tasks);
      const int g1 = static_cast<int>(1LL * ntiles * (task + 1) / tasks);
      for (int gt = g0; gt < g1; ++gt) {
        const int bl = gt / plan.tiles, t = gt % plan.tiles;
        const auto ti = static_cast<std::size_t>(t);
        const TileOut o{pscale + static_cast<std::size_t>(gt) * kTile,
                        plan.tile_mask[ti],
                        y + static_cast<std::size_t>(b0 + bl) * out_sample +
                            static_cast<std::size_t>(plan.tile_out[ti]),
                        spatial};
        if (o.mask == 0) continue;
        const std::uint8_t* act =
            codes + static_cast<std::size_t>(gt) * tile_bytes;
        switch (be) {
          case Backend::kNaive:
          case Backend::kPortable:
            conv_tile_scalar(plan, act, wgt, wgt_scales, bias, o);
            break;
          case Backend::kAvx2:
            conv_tile_avx2(plan, act, wpack, wgt_row_sums, wgt_scales, bias, o);
            break;
          case Backend::kVnni:
            conv_tile_vnni(plan, act, wpack, wgt_row_sums, wgt_scales, bias, o);
            break;
        }
      }
    });
    if (timed) gemm_ns += elapsed_ns(t0);
  }
  if (pack_hist != nullptr) pack_hist->record(static_cast<double>(pack_ns));
  if (gemm_hist != nullptr) gemm_hist->record(static_cast<double>(gemm_ns));
}

namespace ref {

void qgemm_nt(const std::int8_t* x, const std::int8_t* y, std::int32_t* c,
              int m, int k, int n, bool accumulate) {
  for (int i = 0; i < m; ++i) {
    const std::int8_t* xi = x + static_cast<std::size_t>(i) * k;
    std::int32_t* ci = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const std::int8_t* yj = y + static_cast<std::size_t>(j) * k;
      std::int32_t acc = 0;
      for (int kk = 0; kk < k; ++kk) acc += std::int32_t(xi[kk]) * yj[kk];
      ci[j] = accumulate ? ci[j] + acc : acc;
    }
  }
}

}  // namespace ref

}  // namespace rowpress::nn::kernels
