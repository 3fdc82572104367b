// GEMM kernel layer: every backend must be bitwise identical to the
// retained naive reference (ref::) — the committed attack artifacts depend
// on the exact FP operation sequence, so these are equality tests, not
// tolerance tests.  Also covers the copy-on-write aliasing rules behind
// zero-copy reshapes.
#include "nn/kernels/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/kernels/qgemm.h"

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/tensor.h"
#include "telemetry/registry.h"

namespace rowpress::nn::kernels {
namespace {

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kNaive, Backend::kPortable, Backend::kAvx2,
                    Backend::kVnni})
    if (backend_available(b)) out.push_back(b);
  return out;
}

/// Runs one op on one backend and on the reference, expecting exact bits.
template <typename Gemm, typename RefGemm>
void expect_exact(Gemm gemm, RefGemm ref_gemm, const std::vector<float>& a,
                  const std::vector<float>& b, std::vector<float> c_init,
                  int m, int k, int n, Backend backend, const char* op) {
  std::vector<float> want = c_init;
  ref_gemm(a.data(), b.data(), want.data(), m, k, n);

  const Backend saved = active_backend();
  set_backend(backend);
  std::vector<float> got = std::move(c_init);
  gemm(a.data(), b.data(), got.data(), m, k, n);
  set_backend(saved);

  for (std::size_t i = 0; i < want.size(); ++i) {
    // Compare as bits so -0.0 vs 0.0 and NaN payload changes fail too.
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
        << op << " backend=" << backend_name(backend) << " m=" << m
        << " k=" << k << " n=" << n << " i=" << i << " got=" << got[i]
        << " want=" << want[i];
  }
}

class GemmGolden : public ::testing::TestWithParam<Backend> {};

TEST_P(GemmGolden, MatchesNaiveBitwiseAcrossShapes) {
  const Backend backend = GetParam();
  Rng rng(11);
  const int sizes[] = {1, 3, 17, 64, 257};
  for (const int m : sizes) {
    for (const int k : sizes) {
      for (const int n : sizes) {
        std::vector<float> a(static_cast<std::size_t>(m) * k);
        std::vector<float> b(static_cast<std::size_t>(k) * n);
        for (auto& v : a) v = static_cast<float>(rng.normal());
        for (auto& v : b) v = static_cast<float>(rng.normal());
        // Exercise the zero-skip contract: exact zeros of both signs in A.
        for (std::size_t i = 0; i < a.size(); i += 7)
          a[i] = (i % 14 == 0) ? 0.0f : -0.0f;

        // Accumulate semantics: C starts non-zero (alpha-style reuse).
        std::vector<float> c(static_cast<std::size_t>(m) * n);
        for (auto& v : c) v = static_cast<float>(rng.normal());

        expect_exact(gemm_nn, ref::gemm_nn, a, b, c, m, k, n, backend, "nn");
        expect_exact(gemm_tn, ref::gemm_tn, a, b, c, k, m, n, backend, "tn");
        // NT reads B as [n, k].
        expect_exact(gemm_nt, ref::gemm_nt, a, b, c, m, k, n, backend, "nt");
      }
    }
  }
}

// Self-contained xorshift32 input stream for the committed goldens below:
// the constants must stay reproducible even if the repo Rng ever changes.
// Values in [-1, 1) with exact zeros sprinkled in (~1/256) so the
// zero-skip branch is part of the pinned sequence.
struct GoldenStream {
  std::uint32_t s = 0x9E3779B9u;
  float next() {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    if ((s & 0xFFu) == 0) return 0.0f;
    return static_cast<float>(s >> 8) / 8388608.0f - 1.0f;
  }
  void fill(std::vector<float>& v) {
    for (auto& x : v) x = next();
  }
};

// Pins the exact per-element FP operation sequences to committed CRC32
// constants, so a refactor cannot silently change the contract and
// invalidate committed attack artifacts.  The constants were generated
// from ref:: on the reference build environment, where ref::gemm_nt was
// verified bitwise against the pre-kernel-layer matmul_bt_accumulate TU
// compiled with the original Release flags (see kernels.h).  IEEE-754
// single precision with explicit fmaf rounding is platform-independent,
// so these must hold on every conforming host.
TEST_P(GemmGolden, MatchesCommittedSequenceGoldens) {
  const Backend backend = GetParam();
  const Backend saved = active_backend();
  set_backend(backend);
  const int shapes[][3] = {
      {1, 1, 1}, {3, 17, 5}, {5, 8, 33}, {4, 64, 9}, {2, 257, 6}};
  GoldenStream gs;
  std::uint32_t crc_nn = 0, crc_nt = 0, crc_tn = 0;
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    std::vector<float> a(static_cast<std::size_t>(m) * k);
    std::vector<float> b(static_cast<std::size_t>(k) * n);
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    gs.fill(a);
    gs.fill(b);
    gs.fill(c);
    std::vector<float> out = c;
    gemm_nn(a.data(), b.data(), out.data(), m, k, n);
    crc_nn = crc32(out.data(), out.size() * sizeof(float), crc_nn);
    out = c;  // NT reads the same buffer as B[n, k]
    gemm_nt(a.data(), b.data(), out.data(), m, k, n);
    crc_nt = crc32(out.data(), out.size() * sizeof(float), crc_nt);
    // TN: A[m, k], B[m, n], C[k, n].
    std::vector<float> ct(static_cast<std::size_t>(k) * n);
    std::vector<float> bt(static_cast<std::size_t>(m) * n);
    gs.fill(ct);
    gs.fill(bt);
    std::vector<float> outt = ct;
    gemm_tn(a.data(), bt.data(), outt.data(), m, k, n);
    crc_tn = crc32(outt.data(), outt.size() * sizeof(float), crc_tn);
  }
  set_backend(saved);
  EXPECT_EQ(crc_nn, 0x930D84CCu) << backend_name(backend);
  EXPECT_EQ(crc_nt, 0x05A8A002u) << backend_name(backend);
  EXPECT_EQ(crc_tn, 0xADA28492u) << backend_name(backend);
}

TEST_P(GemmGolden, KZeroLeavesCUntouched) {
  const Backend backend = GetParam();
  const Backend saved = active_backend();
  set_backend(backend);
  std::vector<float> a, b;
  std::vector<float> c = {1.5f, -2.0f, 0.25f, 3.0f, -0.5f, 7.0f};
  const std::vector<float> before = c;
  gemm_nn(a.data(), b.data(), c.data(), 2, 0, 3);
  gemm_nt(a.data(), b.data(), c.data(), 2, 0, 3);
  gemm_tn(a.data(), b.data(), c.data(), 0, 2, 3);
  set_backend(saved);
  EXPECT_EQ(c, before);
}

TEST_P(GemmGolden, ZeroSkipShieldsNonFiniteRhs) {
  const Backend backend = GetParam();
  // A row of exact zeros in A must skip the matching B row entirely in the
  // nn/tn kernels (the documented contract), so an Inf there never
  // propagates.  The reference defines the semantics; backends must agree.
  const int m = 5, k = 9, n = 33;
  Rng rng(13);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (int i = 0; i < m; ++i) a[static_cast<std::size_t>(i) * k + 4] = 0.0f;
  for (int j = 0; j < n; ++j)
    b[static_cast<std::size_t>(4) * n + j] = INFINITY;

  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  expect_exact(gemm_nn, ref::gemm_nn, a, b, c, m, k, n, backend, "nn-inf");

  const Backend saved = active_backend();
  set_backend(backend);
  std::vector<float> got(static_cast<std::size_t>(m) * n, 0.0f);
  gemm_nn(a.data(), b.data(), got.data(), m, k, n);
  set_backend(saved);
  for (const float v : got) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Backends, GemmGolden,
                         ::testing::ValuesIn(available_backends()),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

// --- int8 GEMM layer ----------------------------------------------------
//
// The int8 kernels carry an exact-integer contract (see qgemm.h): every
// backend computes the mathematical int32 dot product, so these goldens
// must hold bitwise on EVERY backend and thread count, not just on the
// reference.

// Deterministic int8 code stream covering the full code range, including
// the -128 saturation code the quantizer itself never emits but a bit
// flip can produce (sign-bit flip of 0 → -128).  Self-contained xorshift
// like GoldenStream so the committed CRCs below outlive any repo Rng
// change.
struct GoldenCodeStream {
  std::uint32_t s = 0xDEADBEEFu;
  std::int8_t next() {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return static_cast<std::int8_t>(s & 0xFFu);
  }
  void fill(std::vector<std::int8_t>& v) {
    for (auto& x : v) x = next();
  }
  std::int32_t next_i32() {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return static_cast<std::int32_t>(s % 1997u) - 998;
  }
  void fill_i32(std::vector<std::int32_t>& v) {
    for (auto& x : v) x = next_i32();
  }
};

std::vector<std::int32_t> row_sums_of(const std::vector<std::int8_t>& w,
                                      int rows, int k) {
  std::vector<std::int32_t> sums(static_cast<std::size_t>(rows), 0);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < k; ++j)
      sums[static_cast<std::size_t>(i)] +=
          w[static_cast<std::size_t>(i) * static_cast<std::size_t>(k) +
            static_cast<std::size_t>(j)];
  return sums;
}

class QgemmGolden : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    saved_ = active_backend();
    set_backend(GetParam());
  }
  void TearDown() override {
    set_gemm_threads(1);
    set_backend(saved_);
  }
  Backend saved_ = Backend::kNaive;
};

TEST_P(QgemmGolden, MatchesReferenceExactlyAcrossShapesAndModes) {
  // Odd-K tails straddle every SIMD width in play (16-lane AVX2 madd
  // steps, 64-byte VNNI steps); both operand orientations and both
  // accumulate modes must agree with the scalar reference bit-for-bit.
  const int ks[] = {0, 1, 3, 17, 31, 63, 64, 65, 100, 192};
  GoldenCodeStream gs;
  for (const int k : ks) {
    for (const int m : {1, 2, 5}) {
      for (const int n : {1, 4, 7}) {
        std::vector<std::int8_t> x(static_cast<std::size_t>(m) * k);
        std::vector<std::int8_t> y(static_cast<std::size_t>(n) * k);
        gs.fill(x);
        gs.fill(y);
        std::vector<std::int32_t> c_init(static_cast<std::size_t>(m) * n);
        gs.fill_i32(c_init);
        for (const bool accumulate : {false, true}) {
          std::vector<std::int32_t> want = c_init;
          ref::qgemm_nt(x.data(), y.data(), want.data(), m, k, n, accumulate);

          // act_wgt: x is the activation, y the weight (row sums over y).
          const auto ysums = row_sums_of(y, n, k);
          std::vector<std::int32_t> got = c_init;
          qgemm_act_wgt(x.data(), y.data(), ysums.data(), got.data(), m, k, n,
                        accumulate);
          ASSERT_EQ(got, want) << "act_wgt k=" << k << " m=" << m
                               << " n=" << n << " acc=" << accumulate;

          // wgt_act: x is the weight (row sums over x), y the activation.
          const auto xsums = row_sums_of(x, m, k);
          got = c_init;
          qgemm_wgt_act(x.data(), y.data(), xsums.data(), got.data(), m, k, n,
                        accumulate);
          ASSERT_EQ(got, want) << "wgt_act k=" << k << " m=" << m
                               << " n=" << n << " acc=" << accumulate;
        }
      }
    }
  }
}

TEST_P(QgemmGolden, MinCodeSaturationExact) {
  // All-(-128) operands maximize every intermediate (including the
  // biased-unsigned VNNI form, where the +128 bias makes the activation 0
  // and the whole result flows through the row-sum compensation).
  const int m = 2, k = 65, n = 3;
  std::vector<std::int8_t> x(static_cast<std::size_t>(m) * k, -128);
  std::vector<std::int8_t> y(static_cast<std::size_t>(n) * k, -128);
  const auto ysums = row_sums_of(y, n, k);
  std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n, 0);
  qgemm_act_wgt(x.data(), y.data(), ysums.data(), c.data(), m, k, n, false);
  for (const std::int32_t v : c) EXPECT_EQ(v, k * 128 * 128);
}

TEST_P(QgemmGolden, KZeroWritesZerosOrLeavesCUntouched) {
  std::vector<std::int8_t> x, y;
  const std::vector<std::int32_t> sums(4, 0);
  std::vector<std::int32_t> c = {7, -9, 13, 21, -5, 11};
  const std::vector<std::int32_t> before = c;
  qgemm_act_wgt(x.data(), y.data(), sums.data(), c.data(), 2, 0, 3, true);
  EXPECT_EQ(c, before);  // accumulate: k = 0 adds nothing
  qgemm_wgt_act(x.data(), y.data(), sums.data(), c.data(), 2, 0, 3, false);
  EXPECT_EQ(c, std::vector<std::int32_t>(6, 0));  // overwrite: zeros
}

// Pins the exact int8 contract — codes from GoldenCodeStream (full range,
// -128 included), odd-K tails, k = 0, both accumulate modes, and the
// batched entry — to committed CRC32 constants.  The SAME constants hold
// for every backend and thread count: integer exactness means there is
// one golden, not one per backend.
TEST_P(QgemmGolden, MatchesCommittedSequenceGoldens) {
  const int shapes[][3] = {{1, 1, 1},  {2, 0, 3},   {3, 17, 5}, {5, 31, 4},
                           {4, 63, 9}, {2, 65, 6},  {1, 100, 3}, {2, 192, 2}};
  GoldenCodeStream gs;
  std::uint32_t crc_aw = 0, crc_wa = 0, crc_b = 0;
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    std::vector<std::int8_t> x(static_cast<std::size_t>(m) * k);
    std::vector<std::int8_t> y(static_cast<std::size_t>(n) * k);
    gs.fill(x);
    gs.fill(y);
    std::vector<std::int32_t> c_init(static_cast<std::size_t>(m) * n);
    gs.fill_i32(c_init);

    const auto ysums = row_sums_of(y, n, k);
    std::vector<std::int32_t> c = c_init;  // overwrite mode: prefill dies
    qgemm_act_wgt(x.data(), y.data(), ysums.data(), c.data(), m, k, n, false);
    crc_aw = crc32(c.data(), c.size() * sizeof(std::int32_t), crc_aw);

    const auto xsums = row_sums_of(x, m, k);
    c = c_init;  // accumulate mode: prefill is part of the golden
    qgemm_wgt_act(x.data(), y.data(), xsums.data(), c.data(), m, k, n, true);
    crc_wa = crc32(c.data(), c.size() * sizeof(std::int32_t), crc_wa);

    // Batched: 3 panels sharing x as the weight, with 8 intra-op threads —
    // the thread partition must not show in the bits.
    const int batch = 3;
    std::vector<std::int8_t> act(static_cast<std::size_t>(batch) * n * k);
    gs.fill(act);
    std::vector<std::int32_t> cb(static_cast<std::size_t>(batch) * m * n);
    set_gemm_threads(8);
    qgemm_wgt_act_batched(x.data(), act.data(), xsums.data(), cb.data(), m, k,
                          n, batch, static_cast<std::int64_t>(n) * k,
                          static_cast<std::int64_t>(m) * n, false);
    set_gemm_threads(1);
    crc_b = crc32(cb.data(), cb.size() * sizeof(std::int32_t), crc_b);
  }
  EXPECT_EQ(crc_aw, 0x9B059986u) << backend_name(GetParam());
  EXPECT_EQ(crc_wa, 0xCCD80FAEu) << backend_name(GetParam());
  EXPECT_EQ(crc_b, 0x91C6A489u) << backend_name(GetParam());
}

TEST_P(QgemmGolden, ThreadCountNeverChangesTheBits) {
  const int m = 37, k = 129, n = 23, batch = 4;
  GoldenCodeStream gs;
  std::vector<std::int8_t> wgt(static_cast<std::size_t>(m) * k);
  std::vector<std::int8_t> act(static_cast<std::size_t>(batch) * n * k);
  gs.fill(wgt);
  gs.fill(act);
  const auto sums = row_sums_of(wgt, m, k);
  std::vector<std::vector<std::int32_t>> results;
  for (const int threads : {1, 2, 8}) {
    set_gemm_threads(threads);
    std::vector<std::int32_t> c(static_cast<std::size_t>(batch) * m * n, -1);
    qgemm_wgt_act_batched(wgt.data(), act.data(), sums.data(), c.data(), m, k,
                          n, batch, static_cast<std::int64_t>(n) * k,
                          static_cast<std::int64_t>(m) * n, false);
    results.push_back(std::move(c));
  }
  set_gemm_threads(1);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

INSTANTIATE_TEST_SUITE_P(Backends, QgemmGolden,
                         ::testing::ValuesIn(available_backends()),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

// --- Fused int8 convolution ---------------------------------------------
//
// qconv must reproduce, bit for bit, the composed path it replaced: a float
// im2col, per-patch quantize_rows, the exact int32 product, and
// requantize.  The reference below is that composition, built only from
// the pinned entry points (ref::qgemm_nt for the integer product).

std::vector<float> reference_qconv(const std::vector<float>& x,
                                   const std::vector<std::int8_t>& wgt,
                                   const std::vector<float>& wscale,
                                   const float* bias, const ConvShape& s) {
  const int oh = s.out_h(), ow = s.out_w(), k = s.patch();
  const int spatial = oh * ow;
  std::vector<float> rows(static_cast<std::size_t>(spatial) * k);
  std::vector<std::int8_t> q(rows.size());
  std::vector<float> qscale(static_cast<std::size_t>(spatial));
  std::vector<std::int32_t> acc(static_cast<std::size_t>(s.cout) * spatial);
  std::vector<float> y(static_cast<std::size_t>(s.batch) * s.cout * spatial);
  for (int b = 0; b < s.batch; ++b) {
    const float* xb =
        x.data() + static_cast<std::size_t>(b) * s.cin * s.h * s.w;
    for (int i = 0; i < oh; ++i) {
      for (int j = 0; j < ow; ++j) {
        float* row = rows.data() + static_cast<std::size_t>(i * ow + j) * k;
        for (int ci = 0; ci < s.cin; ++ci) {
          for (int ki = 0; ki < s.kh; ++ki) {
            for (int kj = 0; kj < s.kw; ++kj) {
              const int hi = i * s.stride_h - s.pad_h + ki;
              const int wi = j * s.stride_w - s.pad_w + kj;
              const bool in = hi >= 0 && hi < s.h && wi >= 0 && wi < s.w;
              row[(ci * s.kh + ki) * s.kw + kj] =
                  in ? xb[(static_cast<std::size_t>(ci) * s.h + hi) * s.w + wi]
                     : 0.0f;
            }
          }
        }
      }
    }
    quantize_rows(rows.data(), q.data(), qscale.data(), spatial, k);
    ref::qgemm_nt(wgt.data(), q.data(), acc.data(), s.cout, k, spatial,
                  /*accumulate=*/false);
    requantize(acc.data(), wscale.data(), qscale.data(), bias,
               bias != nullptr ? BiasAxis::kPerRow : BiasAxis::kNone,
               y.data() + static_cast<std::size_t>(b) * s.cout * spatial,
               s.cout, spatial);
  }
  return y;
}

struct QconvCase {
  ConvShape shape;
  std::vector<float> x;
  std::vector<std::int8_t> wgt;
  std::vector<std::int32_t> sums;
  std::vector<float> wscale, bias;
  bool has_bias = false;
};

// Random case; `hostile` plants the patches the quantizer special-cases:
// an all-zero sample, an all-NaN sample, scattered NaN/+-Inf, -128 weight
// codes (a sign-bit flip of code 0) and -0.0 biases.
QconvCase make_qconv_case(const ConvShape& shape, bool has_bias, bool hostile,
                          Rng& rng) {
  QconvCase c;
  c.shape = shape;
  c.has_bias = has_bias;
  const int k = shape.patch();
  c.x.resize(static_cast<std::size_t>(shape.batch) * shape.cin * shape.h *
             shape.w);
  for (auto& v : c.x)
    v = static_cast<float>(rng.normal() * std::exp(rng.uniform(-3.0, 3.0)));
  c.wgt.resize(static_cast<std::size_t>(shape.cout) * k);
  for (auto& v : c.wgt)
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_u64(255)) - 127);
  c.wscale.resize(static_cast<std::size_t>(shape.cout));
  for (auto& v : c.wscale) v = static_cast<float>(rng.uniform(1e-4, 1e-1));
  c.bias.resize(static_cast<std::size_t>(shape.cout));
  for (auto& v : c.bias) v = static_cast<float>(rng.normal());
  if (hostile) {
    const std::size_t per_sample = c.x.size() / shape.batch;
    std::fill_n(c.x.begin(), per_sample, 0.0f);  // every patch all-zero
    if (shape.batch > 1)                          // every patch all-NaN
      std::fill_n(c.x.begin() + static_cast<std::ptrdiff_t>(per_sample),
                  per_sample, NAN);
    const float specials[] = {NAN, INFINITY, -INFINITY, -0.0f};
    for (std::size_t i = 2 * per_sample; i < c.x.size(); i += 37)
      c.x[i] = specials[(i / 37) % 4];
    for (std::size_t i = 0; i < c.wgt.size(); i += 5) c.wgt[i] = -128;
    // A -0.0 bias keeps the sign of fma(acc, scale 0, bias)'s zero product
    // visible: a zero patch must still contribute acc = 0, not just scale 0.
    for (std::size_t i = 0; i < c.bias.size(); i += 2) c.bias[i] = -0.0f;
  }
  c.sums = row_sums_of(c.wgt, shape.cout, k);
  return c;
}

std::vector<float> run_qconv(const QconvCase& c) {
  std::vector<float> y(static_cast<std::size_t>(c.shape.batch) * c.shape.cout *
                       c.shape.out_h() * c.shape.out_w());
  qconv(c.x.data(), c.wgt.data(), c.sums.data(), c.wscale.data(),
        c.has_bias ? c.bias.data() : nullptr, c.shape, y.data());
  return y;
}

void expect_bits_equal(const std::vector<float>& got,
                       const std::vector<float>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
        << what << " i=" << i << " got=" << got[i] << " want=" << want[i];
}

std::string describe(const ConvShape& s, bool bias) {
  return "b=" + std::to_string(s.batch) + " cin=" + std::to_string(s.cin) +
         " cout=" + std::to_string(s.cout) + " h=" + std::to_string(s.h) +
         " w=" + std::to_string(s.w) + " k=" + std::to_string(s.kh) + "x" +
         std::to_string(s.kw) + " s=" + std::to_string(s.stride_h) + "," +
         std::to_string(s.stride_w) + " p=" + std::to_string(s.pad_h) + "," +
         std::to_string(s.pad_w) + (bias ? " bias" : "");
}

class QconvDifferential : public QgemmGolden {};

TEST_P(QconvDifferential, MatchesComposedReferenceOnRandomShapes) {
  Rng rng(1234);
  const int kernels[] = {1, 3, 5};
  const int strides[] = {1, 2, 4};
  int cases = 0;
  while (cases < 48) {
    ConvShape s;
    s.batch = static_cast<int>(rng.uniform_int(1, 9));
    s.cin = static_cast<int>(rng.uniform_int(1, 40));
    s.cout = static_cast<int>(rng.uniform_int(1, 70));
    s.h = static_cast<int>(rng.uniform_int(1, 17));
    s.w = static_cast<int>(rng.uniform_int(1, 17));
    s.kh = s.kw = kernels[rng.uniform_u64(3)];
    s.stride_h = s.stride_w = strides[rng.uniform_u64(3)];
    s.pad_h = s.pad_w = static_cast<int>(rng.uniform_int(0, 2));
    if (s.out_h() <= 0 || s.out_w() <= 0) continue;
    // Keep the scalar reference affordable.
    if (1LL * s.batch * s.out_h() * s.out_w() * s.patch() * s.cout > 3'000'000)
      continue;
    const bool bias = rng.uniform_u64(2) == 1;
    const bool hostile = cases % 4 == 0;
    const QconvCase c = make_qconv_case(s, bias, hostile, rng);
    const auto want = reference_qconv(c.x, c.wgt, c.wscale,
                                      bias ? c.bias.data() : nullptr, s);
    for (const int threads : {1, 2, 8}) {
      set_gemm_threads(threads);
      expect_bits_equal(run_qconv(c), want,
                        describe(s, bias) + (hostile ? " hostile" : "") +
                            " threads=" + std::to_string(threads));
    }
    ++cases;
  }
}

// Fixed corners the random draw may miss: the Conv1d form (h = kh = 1,
// asymmetric stride and padding), 1x1 images, kernels overhanging the
// padded input, channel counts straddling the 8-channel microkernel block,
// and ResNet-20's own conv shapes.
TEST_P(QconvDifferential, MatchesComposedReferenceOnFixedCorners) {
  const ConvShape shapes[] = {
      {.batch = 3, .cin = 1, .h = 1, .w = 64, .cout = 12, .kh = 1, .kw = 9,
       .stride_h = 1, .stride_w = 2, .pad_h = 0, .pad_w = 4},
      {.batch = 2, .cin = 12, .h = 1, .w = 31, .cout = 12, .kh = 1, .kw = 3,
       .stride_h = 1, .stride_w = 1, .pad_h = 0, .pad_w = 1},
      {.batch = 2, .cin = 3, .h = 1, .w = 1, .cout = 9, .kh = 1, .kw = 1},
      {.batch = 2, .cin = 2, .h = 1, .w = 1, .cout = 17, .kh = 3, .kw = 3,
       .stride_h = 1, .stride_w = 1, .pad_h = 1, .pad_w = 1},
      {.batch = 1, .cin = 2, .h = 2, .w = 3, .cout = 7, .kh = 5, .kw = 5,
       .stride_h = 4, .stride_w = 4, .pad_h = 1, .pad_w = 2},
      {.batch = 4, .cin = 1, .h = 12, .w = 12, .cout = 8, .kh = 3, .kw = 3,
       .stride_h = 1, .stride_w = 1, .pad_h = 1, .pad_w = 1},
      {.batch = 4, .cin = 8, .h = 12, .w = 12, .cout = 16, .kh = 3, .kw = 3,
       .stride_h = 2, .stride_w = 2, .pad_h = 1, .pad_w = 1},
      {.batch = 4, .cin = 8, .h = 12, .w = 12, .cout = 16, .kh = 1, .kw = 1,
       .stride_h = 2, .stride_w = 2},
      {.batch = 5, .cin = 32, .h = 3, .w = 3, .cout = 33, .kh = 3, .kw = 3,
       .stride_h = 1, .stride_w = 1, .pad_h = 1, .pad_w = 1},
  };
  Rng rng(99);
  for (const ConvShape& s : shapes) {
    for (const bool hostile : {false, true}) {
      const QconvCase c = make_qconv_case(s, hostile, hostile, rng);
      const auto want = reference_qconv(
          c.x, c.wgt, c.wscale, c.has_bias ? c.bias.data() : nullptr, s);
      for (const int threads : {1, 2, 8}) {
        set_gemm_threads(threads);
        expect_bits_equal(run_qconv(c), want,
                          describe(s, c.has_bias) +
                              (hostile ? " hostile" : "") +
                              " threads=" + std::to_string(threads));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, QconvDifferential,
                         ::testing::ValuesIn(available_backends()),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

// --- Fused float convolution ---------------------------------------------
//
// kernels::conv must reproduce, bit for bit, the per-sample composition it
// replaced in Conv2d/Conv1d: fill the output with the bias (+0.0f without
// one), im2col the sample, then gemm_nn.  The reference below is that
// composition, built from ref::gemm_nn.

std::vector<float> reference_conv(const std::vector<float>& x,
                                  const std::vector<float>& wgt,
                                  const float* bias, const ConvShape& s) {
  const int oh = s.out_h(), ow = s.out_w(), k = s.patch();
  const int spatial = oh * ow;
  std::vector<float> col(static_cast<std::size_t>(k) * spatial);
  std::vector<float> y(static_cast<std::size_t>(s.batch) * s.cout * spatial,
                       0.0f);
  for (int b = 0; b < s.batch; ++b) {
    const float* xb =
        x.data() + static_cast<std::size_t>(b) * s.cin * s.h * s.w;
    for (int ci = 0; ci < s.cin; ++ci) {
      for (int ki = 0; ki < s.kh; ++ki) {
        for (int kj = 0; kj < s.kw; ++kj) {
          float* row = col.data() +
                       static_cast<std::size_t>((ci * s.kh + ki) * s.kw + kj) *
                           spatial;
          for (int i = 0; i < oh; ++i) {
            for (int j = 0; j < ow; ++j) {
              const int hi = i * s.stride_h - s.pad_h + ki;
              const int wi = j * s.stride_w - s.pad_w + kj;
              const bool in = hi >= 0 && hi < s.h && wi >= 0 && wi < s.w;
              row[i * ow + j] =
                  in ? xb[(static_cast<std::size_t>(ci) * s.h + hi) * s.w + wi]
                     : 0.0f;
            }
          }
        }
      }
    }
    float* yb = y.data() + static_cast<std::size_t>(b) * s.cout * spatial;
    if (bias != nullptr)
      for (int co = 0; co < s.cout; ++co)
        std::fill_n(yb + static_cast<std::size_t>(co) * spatial, spatial,
                    bias[co]);
    ref::gemm_nn(wgt.data(), col.data(), yb, s.cout, k, spatial);
  }
  return y;
}

struct ConvCase {
  ConvShape shape;
  std::vector<float> x, wgt, bias;
  bool has_bias = false;
};

// Random case with exact zeros of both signs among the weights (the
// zero-skip shortcut).  `hostile` adds NaN/+-Inf/-0.0 inputs, an all-zero
// weight row, more zero weights next to nonzero ones in the same channel
// block, and -0.0 biases (a chain that skips every tap must return the
// bias's sign untouched).
ConvCase make_conv_case(const ConvShape& shape, bool has_bias, bool hostile,
                        Rng& rng) {
  ConvCase c;
  c.shape = shape;
  c.has_bias = has_bias;
  const int k = shape.patch();
  c.x.resize(static_cast<std::size_t>(shape.batch) * shape.cin * shape.h *
             shape.w);
  for (auto& v : c.x)
    v = static_cast<float>(rng.normal() * std::exp(rng.uniform(-3.0, 3.0)));
  c.wgt.resize(static_cast<std::size_t>(shape.cout) * k);
  for (auto& v : c.wgt) v = static_cast<float>(rng.normal());
  for (std::size_t i = 0; i < c.wgt.size(); i += 11)
    c.wgt[i] = (i % 22 == 0) ? 0.0f : -0.0f;
  c.bias.resize(static_cast<std::size_t>(shape.cout));
  for (auto& v : c.bias) v = static_cast<float>(rng.normal());
  if (hostile) {
    const float specials[] = {NAN, INFINITY, -INFINITY, -0.0f};
    for (std::size_t i = 0; i < c.x.size(); i += 7)
      c.x[i] = specials[(i / 7) % 4];
    for (std::size_t i = 0; i < c.wgt.size(); i += 3)
      c.wgt[i] = (i % 2 == 0) ? 0.0f : -0.0f;
    std::fill_n(c.wgt.begin(), k, 0.0f);  // channel 0: every tap skipped
    for (std::size_t i = 0; i < c.bias.size(); i += 2) c.bias[i] = -0.0f;
  }
  return c;
}

std::vector<float> run_conv(const ConvCase& c) {
  std::vector<float> y(static_cast<std::size_t>(c.shape.batch) * c.shape.cout *
                       c.shape.out_h() * c.shape.out_w());
  conv(c.x.data(), c.wgt.data(), c.has_bias ? c.bias.data() : nullptr,
       c.shape, y.data());
  return y;
}

void expect_conv_matches_reference(const ConvCase& c, const std::string& what) {
  const auto want = reference_conv(c.x, c.wgt,
                                   c.has_bias ? c.bias.data() : nullptr,
                                   c.shape);
  expect_bits_equal(run_conv(c), want, what);
}

class FloatConvDifferential : public QgemmGolden {};

TEST_P(FloatConvDifferential, MatchesComposedReferenceOnRandomShapes) {
  Rng rng(4321);
  const int kernels[] = {1, 3, 5};
  const int strides[] = {1, 2, 4};
  int cases = 0;
  while (cases < 48) {
    ConvShape s;
    s.batch = static_cast<int>(rng.uniform_int(1, 9));
    s.cin = static_cast<int>(rng.uniform_int(1, 40));
    s.cout = static_cast<int>(rng.uniform_int(1, 70));
    s.h = static_cast<int>(rng.uniform_int(1, 17));
    s.w = static_cast<int>(rng.uniform_int(1, 17));
    s.kh = s.kw = kernels[rng.uniform_u64(3)];
    s.stride_h = s.stride_w = strides[rng.uniform_u64(3)];
    s.pad_h = s.pad_w = static_cast<int>(rng.uniform_int(0, 2));
    if (s.out_h() <= 0 || s.out_w() <= 0) continue;
    if (1LL * s.batch * s.out_h() * s.out_w() * s.patch() * s.cout > 3'000'000)
      continue;
    const bool bias = rng.uniform_u64(2) == 1;
    const bool hostile = cases % 4 == 0;
    const ConvCase c = make_conv_case(s, bias, hostile, rng);
    expect_conv_matches_reference(
        c, describe(s, bias) + (hostile ? " hostile" : ""));
    ++cases;
  }
}

// Fixed corners: M11's k = 9 stride-2 Conv1d stem and its stride-1 Conv1d
// form, 1x1 images, kernels overhanging the padded input, ResNet-20's 1x1
// stride-2 downsample, 3x3 outputs (one partial tile per sample), and
// channel counts straddling the 4- and 8-channel microkernel blocks.
TEST_P(FloatConvDifferential, MatchesComposedReferenceOnFixedCorners) {
  const ConvShape shapes[] = {
      {.batch = 3, .cin = 1, .h = 1, .w = 256, .cout = 12, .kh = 1, .kw = 9,
       .stride_h = 1, .stride_w = 2, .pad_h = 0, .pad_w = 4},
      {.batch = 2, .cin = 12, .h = 1, .w = 31, .cout = 12, .kh = 1, .kw = 3,
       .stride_h = 1, .stride_w = 1, .pad_h = 0, .pad_w = 1},
      {.batch = 2, .cin = 3, .h = 1, .w = 1, .cout = 9, .kh = 1, .kw = 1},
      {.batch = 2, .cin = 2, .h = 1, .w = 1, .cout = 17, .kh = 3, .kw = 3,
       .stride_h = 1, .stride_w = 1, .pad_h = 1, .pad_w = 1},
      {.batch = 1, .cin = 2, .h = 2, .w = 3, .cout = 7, .kh = 5, .kw = 5,
       .stride_h = 4, .stride_w = 4, .pad_h = 1, .pad_w = 2},
      {.batch = 3, .cin = 3, .h = 2, .w = 2, .cout = 5, .kh = 5, .kw = 5,
       .stride_h = 1, .stride_w = 1, .pad_h = 2, .pad_w = 2},
      // Unpadded overhang: the taps past the input fall where a plane one
      // row or column too small would hold the next phase's data.
      {.batch = 2, .cin = 3, .h = 2, .w = 2, .cout = 6, .kh = 3, .kw = 3,
       .stride_h = 2, .stride_w = 2},
      {.batch = 4, .cin = 1, .h = 12, .w = 12, .cout = 4, .kh = 3, .kw = 3,
       .stride_h = 1, .stride_w = 1, .pad_h = 1, .pad_w = 1},
      {.batch = 4, .cin = 8, .h = 12, .w = 12, .cout = 16, .kh = 3, .kw = 3,
       .stride_h = 2, .stride_w = 2, .pad_h = 1, .pad_w = 1},
      {.batch = 4, .cin = 8, .h = 12, .w = 12, .cout = 16, .kh = 1, .kw = 1,
       .stride_h = 2, .stride_w = 2},
      {.batch = 5, .cin = 32, .h = 3, .w = 3, .cout = 33, .kh = 3, .kw = 3,
       .stride_h = 1, .stride_w = 1, .pad_h = 1, .pad_w = 1},
      {.batch = 7, .cin = 16, .h = 3, .w = 3, .cout = 16, .kh = 3, .kw = 3,
       .stride_h = 1, .stride_w = 1, .pad_h = 1, .pad_w = 1},
  };
  Rng rng(77);
  for (const ConvShape& s : shapes) {
    for (const bool hostile : {false, true}) {
      for (const bool bias : {false, true}) {
        const ConvCase c = make_conv_case(s, bias, hostile, rng);
        expect_conv_matches_reference(
            c, describe(s, bias) + (hostile ? " hostile" : ""));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, FloatConvDifferential,
                         ::testing::ValuesIn(available_backends()),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

// FP edges of the int8 path: the per-element sequences are pinned in
// qgemm.h; these tests hold the documented edge cases in place.
TEST(QgemmQuantize, PinnedEdgeCases) {
  // Row 0: plain values, amax = 2.0 -> max code magnitude 127.
  // Row 1: all zeros -> scale 0, all codes 0.
  // Row 2: NaN maps to -127 deterministically; amax ignores the NaN.
  const float x[] = {2.0f, -1.0f, 0.5f, 0.0f,
                     0.0f, -0.0f, 0.0f, 0.0f,
                     NAN,  1.0f,  -0.25f, 0.125f};
  std::int8_t q[12];
  float scale[3];
  quantize_rows(x, q, scale, 3, 4);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -64);  // -1.0 * (127/2) = -63.5 -> ties-to-even -> -64
  EXPECT_FLOAT_EQ(scale[0], 2.0f / 127.0f);
  for (int j = 0; j < 4; ++j) EXPECT_EQ(q[4 + j], 0);
  EXPECT_EQ(scale[1], 0.0f);
  EXPECT_EQ(q[8], -127);  // NaN clamps through fmaxf/fminf, never UB cast
  EXPECT_EQ(q[9], 127);   // amax of row 2 is 1.0, NaN ignored
  EXPECT_FLOAT_EQ(scale[2], 1.0f / 127.0f);
}

TEST(QgemmQuantize, RequantizeBiasAxes) {
  const std::int32_t acc[] = {10, 20, 30, 40, 50, 60};  // 2 x 3
  const float row_scale[] = {0.5f, 2.0f};
  const float col_scale[] = {1.0f, 0.5f, 0.25f};
  const float bias2[] = {100.0f, 200.0f};
  const float bias3[] = {1.0f, 2.0f, 3.0f};
  float y[6];
  requantize(acc, row_scale, col_scale, nullptr, BiasAxis::kNone, y, 2, 3);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[5], 30.0f);
  requantize(acc, row_scale, col_scale, bias2, BiasAxis::kPerRow, y, 2, 3);
  EXPECT_FLOAT_EQ(y[0], 105.0f);
  EXPECT_FLOAT_EQ(y[5], 230.0f);
  requantize(acc, row_scale, col_scale, bias3, BiasAxis::kPerCol, y, 2, 3);
  EXPECT_FLOAT_EQ(y[2], 1.0f * 30 * 0.5f * 0.25f + 3.0f);
  // Null scales mean 1.0 on that axis.
  requantize(acc, nullptr, nullptr, nullptr, BiasAxis::kNone, y, 2, 3);
  EXPECT_FLOAT_EQ(y[0], 10.0f);
}

// The telemetry binding is a raw pointer into a caller-owned registry held
// in a thread-local; ScopedBindMetrics must detach it on scope exit, or a
// pooled worker's next GEMM records into a destroyed per-trial registry.
TEST(KernelDispatch, ScopedBindMetricsDetachesOnScopeExit) {
  telemetry::MetricsRegistry reg;
  const std::vector<float> a = {1.0f, 2.0f}, b = {3.0f, 4.0f};
  std::vector<float> c = {0.0f};
  {
    ScopedBindMetrics bound(&reg);
    gemm_nn(a.data(), b.data(), c.data(), 1, 2, 1);
  }
  // Bounds must match bind_metrics' registration exactly (re-registering a
  // histogram with different bounds throws).
  const auto& hist = reg.histogram(
      "kernels.gemm_ns", {1e3, 4e3, 16e3, 64e3, 256e3, 1e6, 4e6, 16e6, 64e6});
  const std::int64_t recorded_in_scope = hist.count();
  EXPECT_EQ(recorded_in_scope, 1);
  gemm_nn(a.data(), b.data(), c.data(), 1, 2, 1);  // unbound: no recording
  EXPECT_EQ(hist.count(), recorded_in_scope);
}

// qconv reports its two stages into the bound registry — the pack into
// kernels.qpack_ns, the microkernel + epilogue into kernels.qgemm_ns — and
// records nothing once the binding is gone.
TEST(KernelDispatch, QconvStagesRecordOnlyWhileBound) {
  const ConvShape s{.batch = 2, .cin = 4, .h = 6, .w = 6, .cout = 8,
                     .kh = 3, .kw = 3, .stride_h = 1, .stride_w = 1,
                     .pad_h = 1, .pad_w = 1};
  Rng rng(8);
  const QconvCase c = make_qconv_case(s, false, false, rng);
  telemetry::MetricsRegistry reg;
  {
    ScopedBindMetrics bound(&reg);
    (void)run_qconv(c);
    (void)run_qconv(c);
  }
  const std::vector<double> bounds{1e3,   4e3, 16e3, 64e3, 256e3,
                                   1e6,   4e6, 16e6, 64e6};
  const auto& pack = reg.histogram("kernels.qpack_ns", bounds);
  const auto& gemm = reg.histogram("kernels.qgemm_ns", bounds);
  EXPECT_EQ(pack.count(), 2);
  EXPECT_EQ(gemm.count(), 2);
  EXPECT_GT(pack.sum(), 0.0);
  EXPECT_GT(gemm.sum(), 0.0);
  (void)run_qconv(c);  // unbound: no recording
  EXPECT_EQ(pack.count(), 2);
  EXPECT_EQ(gemm.count(), 2);
}

// The float conv records each call into kernels.gemm_ns (the histogram
// the per-sample gemm_nn calls it replaced recorded into), and nothing
// once the binding is gone.
TEST(KernelDispatch, FloatConvRecordsIntoGemmHistogramOnlyWhileBound) {
  const ConvShape s{.batch = 2, .cin = 4, .h = 6, .w = 6, .cout = 8,
                    .kh = 3, .kw = 3, .stride_h = 1, .stride_w = 1,
                    .pad_h = 1, .pad_w = 1};
  Rng rng(9);
  const ConvCase c = make_conv_case(s, true, false, rng);
  telemetry::MetricsRegistry reg;
  {
    ScopedBindMetrics bound(&reg);
    (void)run_conv(c);
    (void)run_conv(c);
  }
  const auto& gemm = reg.histogram(
      "kernels.gemm_ns", {1e3, 4e3, 16e3, 64e3, 256e3, 1e6, 4e6, 16e6, 64e6});
  EXPECT_EQ(gemm.count(), 2);
  EXPECT_GT(gemm.sum(), 0.0);
  (void)run_conv(c);  // unbound: no recording
  EXPECT_EQ(gemm.count(), 2);
}

TEST(KernelDispatch, BackendManagement) {
  EXPECT_TRUE(backend_available(Backend::kNaive));
  EXPECT_TRUE(backend_available(Backend::kPortable));
  const Backend saved = active_backend();
  for (const Backend b : available_backends()) {
    set_backend(b);
    EXPECT_EQ(active_backend(), b);
    EXPECT_NE(backend_name(b), nullptr);
  }
  set_backend(saved);
  EXPECT_FALSE(backend_available(static_cast<Backend>(99)));
  EXPECT_THROW(set_backend(static_cast<Backend>(99)), std::logic_error);
}

// Zero-copy reshapes share storage; a later write to the source must not
// leak into a layer's cached activation (regression for the COW tensor).
TEST(ReshapeAliasing, CachedInputSurvivesCallerMutation) {
  Rng rng_a(21);
  Linear lin_a(4, 3, rng_a, /*bias=*/true, "a");
  Rng rng_b(21);
  Linear lin_b(4, 3, rng_b, /*bias=*/true, "b");

  Rng data_rng(22);
  Tensor x = Tensor::randn({2, 4}, data_rng);
  Tensor x_pristine = x;
  x_pristine[0] = x_pristine[0];  // force a private copy now

  (void)lin_a.forward(x);
  x[0] = 1e6f;  // mutate AFTER forward; cached input must be unaffected
  (void)lin_b.forward(x_pristine);

  Tensor g({2, 3}, 0.5f);
  (void)lin_a.backward(g);
  (void)lin_b.backward(g);
  const auto pa = lin_a.parameters();
  const auto pb = lin_b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t j = 0; j < pa[i]->grad.numel(); ++j)
      ASSERT_EQ(pa[i]->grad[j], pb[i]->grad[j]);
}

}  // namespace
}  // namespace rowpress::nn::kernels
