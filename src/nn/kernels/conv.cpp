// Fused float convolution (kernels::conv) and the position grid it shares
// with the int8 qconv (conv_plan.h).
//
// This TU is compiled with -ffp-contract=off (see src/CMakeLists.txt) like
// gemm.cpp: each output element is gemm_nn's pinned FMA chain, and the
// compiler must not fuse or reorder anything else into it.
//
// Each output element (b, co, i, j) is the chain gemm_nn runs for element
// (co, p) of W[cout, K] * im2col(x_b)[K, OH*OW] after the layer filled the
// output with its bias:
//
//   acc = bias != null ? bias[co] : +0.0f
//   for t = 0 .. K-1 in (ci, ki, kj) order:
//     if (W[co, t] == 0.0f) skip          (gemm_nn's zero-A shortcut)
//     acc = fmaf(W[co, t], patch_p[t], acc)
//
// where patch_p[t] is the plane cell the tap reads: the input value, or the
// +0.0f pad cell where im2col writes +0.0f.  Lanes are output positions, so
// every lane runs its own element's chain unchanged:
//
//   * naive, portable: plain C++, one channel at a time over a sample's
//     grid rows 0 .. oh-1 (only the ow stored columns of the last row),
//     one contiguous lane loop per tap; small padded maps run im2col +
//     portable_gemm_nn instead (conv_scalar says when);
//   * avx2: 4 channels x 16 positions (two ymm per channel) per tap;
//   * vnni: AVX-512F, 8 channels (4 for a last block of <= 4) x 16
//     positions, two tiles at a time so each weight broadcast feeds two
//     FMAs.  On a 4-core AVX-512 VNNI host, ten alternating bnb-mini
//     pairs put its op_ms 40% below the AVX2 kernel's (medians 15.8 vs
//     26.3 ms, lower in all ten).
//
// For avx2 and vnni, weights are packed per call, tap-major per block of
// `width` channels ([t][width] floats, zero past cout), with a per-tap flag
// telling whether any real channel of the block has a zero weight there.
// Unflagged taps run the block's FMAs unconditionally; flagged taps test
// each channel.  Padded channels are computed and never stored.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "nn/kernels/conv_plan.h"
#include "nn/kernels/gemm.h"
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

void ConvPlan::reset(const ConvShape& shape) {
  s = shape;
  oh = s.out_h();
  ow = s.out_w();
  k = s.patch();
  k4 = (k + 3) / 4;
  ph_h = std::min(s.stride_h, s.kh);
  ph_w = std::min(s.stride_w, s.kw);
  // A kernel overhanging the padded input (h + 2*pad < kh) still needs
  // its taps' rows/columns inside the plane; they read as zeros.
  hq = std::max((s.h + 2 * s.pad_h + s.stride_h - 1) / s.stride_h,
                oh + (s.kh - 1) / s.stride_h);
  wq = std::max((s.w + 2 * s.pad_w + s.stride_w - 1) / s.stride_w,
                ow + (s.kw - 1) / s.stride_w);
  tiles = (oh * wq + kTile - 1) / kTile;
  plane = static_cast<std::size_t>(hq) * wq;

  taps.resize(static_cast<std::size_t>(k4) * 4);
  std::int32_t max_tap = 0;
  for (int ci = 0, t = 0; ci < s.cin; ++ci) {
    for (int ki = 0; ki < s.kh; ++ki) {
      for (int kj = 0; kj < s.kw; ++kj, ++t) {
        const std::size_t phase =
            static_cast<std::size_t>(ci) * ph_h * ph_w +
            static_cast<std::size_t>(ki % s.stride_h) * ph_w +
            static_cast<std::size_t>(kj % s.stride_w);
        const std::size_t off =
            phase * plane +
            static_cast<std::size_t>(ki / s.stride_h) * wq +
            static_cast<std::size_t>(kj / s.stride_w);
        taps[static_cast<std::size_t>(t)] = static_cast<std::int32_t>(off);
        max_tap = std::max(max_tap, static_cast<std::int32_t>(off));
      }
    }
  }
  // Taps past K re-read the last real tap: valid memory, zero weights.
  for (std::size_t t = static_cast<std::size_t>(k); t < taps.size(); ++t)
    taps[t] = taps[static_cast<std::size_t>(k) - 1];
  sample_stride =
      std::max(static_cast<std::size_t>(s.cin) * ph_h * ph_w * plane,
               static_cast<std::size_t>(max_tap) +
                   static_cast<std::size_t>(tiles) * kTile);

  tile_mask.resize(static_cast<std::size_t>(tiles));
  tile_out.resize(static_cast<std::size_t>(tiles));
  for (int t = 0; t < tiles; ++t) {
    std::uint16_t mask = 0;
    int first = -1;
    for (int l = 0; l < kTile; ++l) {
      const int r = t * kTile + l;
      if (r >= oh * wq || r % wq >= ow) continue;
      mask = static_cast<std::uint16_t>(mask | (1u << l));
      if (first < 0) first = (r / wq) * ow + r % wq;
    }
    tile_mask[static_cast<std::size_t>(t)] = mask;
    tile_out[static_cast<std::size_t>(t)] = first < 0 ? 0 : first;
  }
}

void build_planes(const ConvPlan& p, const float* x, float* dst) {
  const ConvShape& s = p.s;
  const int sh = s.stride_h, sw = s.stride_w;
  std::fill_n(dst, p.sample_stride, 0.0f);
  for (int pi = 0; pi < p.ph_h; ++pi) {
    // Plane rows whose source row a*sh + pi - pad_h lies in [0, h).
    const int a_lo = std::max(0, s.pad_h - pi + sh - 1) / sh;
    const int a_hi =
        std::min(p.hq, std::max(0, s.h + s.pad_h - pi + sh - 1) / sh);
    for (int pj = 0; pj < p.ph_w; ++pj) {
      // Plane columns whose source column b*sw + pj - pad_w lies in [0, w).
      const int c_lo = std::max(0, s.pad_w - pj + sw - 1) / sw;
      const int c_hi =
          std::min(p.wq, std::max(0, s.w + s.pad_w - pj + sw - 1) / sw);
      if (c_lo >= c_hi) continue;
      const int n = c_hi - c_lo;
      for (int ci = 0; ci < s.cin; ++ci) {
        const float* xc = x + static_cast<std::size_t>(ci) * s.h * s.w +
                          (c_lo * sw + pj - s.pad_w);
        float* plane =
            dst + ((static_cast<std::size_t>(ci) * p.ph_h + pi) * p.ph_w + pj) *
                      p.plane + c_lo;
        for (int a = a_lo; a < a_hi; ++a) {
          const float* src =
              xc + static_cast<std::size_t>(a * sh + pi - s.pad_h) * s.w;
          float* row = plane + static_cast<std::size_t>(a) * p.wq;
          if (sw == 1) {
            std::memcpy(row, src, static_cast<std::size_t>(n) * sizeof(float));
          } else {
            for (int c = 0; c < n; ++c) row[c] = src[c * sw];
          }
        }
      }
    }
  }
}

}  // namespace detail

namespace {

using detail::ConvPlan;
using detail::kChunkBytes;
using detail::kTile;

// Output of one tile: lanes of `mask` go, in order, to consecutive output
// indices from `dst` (channel 0 of the block); channels are `spatial` apart.
struct Unit {
  const float* src;  // the tile's first grid position in its sample's planes
  std::uint16_t mask;
  float* dst;
};

// Weights of one call, tap-major per block of `width` channels.
struct WeightPack {
  std::vector<float> w;              // [blocks][k][width], zero past cout
  std::vector<std::uint8_t> sparse;  // [blocks][k]: a real channel's w == 0
};

void pack_weights(const ConvPlan& p, const float* wgt, int width,
                  WeightPack& out) {
  const int blocks = (p.s.cout + width - 1) / width;
  out.w.assign(static_cast<std::size_t>(blocks) * p.k * width, 0.0f);
  out.sparse.assign(static_cast<std::size_t>(blocks) * p.k, 0);
  for (int co = 0; co < p.s.cout; ++co) {
    const float* row = wgt + static_cast<std::size_t>(co) * p.k;
    const std::size_t blk = static_cast<std::size_t>(co / width);
    float* dst = out.w.data() + blk * p.k * width + co % width;
    std::uint8_t* flags = out.sparse.data() + blk * p.k;
    for (int t = 0; t < p.k; ++t) {
      dst[static_cast<std::size_t>(t) * width] = row[t];
      if (row[t] == 0.0f) flags[t] = 1;
    }
  }
}

// One sample in plain C++ (naive and portable): per channel and tap, one
// contiguous update of `lanes` grid lanes, the row update portable_gemm_nn
// runs.  Output row i sits at lane i * wq.  When those rows are contiguous
// (wq == ow, or one row) they accumulate in place; otherwise in `acc`
// (lanes floats), then each row's ow lanes are stored.
void conv_sample_scalar(const ConvPlan& p, const float* wgt, const float* bias,
                        const float* src, std::size_t lanes, float* out,
                        float* acc) {
  const std::size_t spatial = static_cast<std::size_t>(p.oh) * p.ow;
  const bool in_place = p.wq == p.ow || p.oh == 1;
  for (int co = 0; co < p.s.cout; ++co) {
    const float* w = wgt + static_cast<std::size_t>(co) * p.k;
    float* dst = out + static_cast<std::size_t>(co) * spatial;
    float* a = in_place ? dst : acc;
    std::fill_n(a, lanes, bias != nullptr ? bias[co] : 0.0f);
    for (int t = 0; t < p.k; ++t) {
      const float wt = w[t];
      if (wt == 0.0f) continue;
      const float* s = src + p.taps[static_cast<std::size_t>(t)];
      for (std::size_t l = 0; l < lanes; ++l)
        a[l] = __builtin_fmaf(wt, s[l], a[l]);
    }
    if (in_place) continue;
    for (int i = 0; i < p.oh; ++i)
      std::memcpy(dst + static_cast<std::size_t>(i) * p.ow,
                  acc + static_cast<std::size_t>(i) * p.wq,
                  static_cast<std::size_t>(p.ow) * sizeof(float));
  }
}

#if defined(__AVX2__) && defined(__FMA__)

// Channels [c0, c0 + 4) of one tile: two ymm per channel.
void conv_unit_avx2(const ConvPlan& p, const WeightPack& wp, int c0,
                    const float* bias, const Unit& u, std::size_t spatial) {
  const std::int32_t* taps = p.taps.data();
  const std::size_t blk = static_cast<std::size_t>(c0 / 4);
  const float* wb = wp.w.data() + blk * p.k * 4;
  const std::uint8_t* sparse = wp.sparse.data() + blk * p.k;
  const int nc = std::min(4, p.s.cout - c0);
  __m256 acc[4][2];
  for (int c = 0; c < 4; ++c)
    acc[c][0] = acc[c][1] = _mm256_set1_ps(
        bias != nullptr && c < nc ? bias[c0 + c] : 0.0f);
  for (int t = 0; t < p.k; ++t) {
    const float* s = u.src + taps[t];
    const __m256 x0 = _mm256_loadu_ps(s);
    const __m256 x1 = _mm256_loadu_ps(s + 8);
    const float* w = wb + static_cast<std::size_t>(t) * 4;
    if (sparse[t] == 0) {
      for (int c = 0; c < 4; ++c) {
        const __m256 wv = _mm256_broadcast_ss(w + c);
        acc[c][0] = _mm256_fmadd_ps(wv, x0, acc[c][0]);
        acc[c][1] = _mm256_fmadd_ps(wv, x1, acc[c][1]);
      }
    } else {
      for (int c = 0; c < 4; ++c) {
        if (w[c] == 0.0f) continue;
        const __m256 wv = _mm256_broadcast_ss(w + c);
        acc[c][0] = _mm256_fmadd_ps(wv, x0, acc[c][0]);
        acc[c][1] = _mm256_fmadd_ps(wv, x1, acc[c][1]);
      }
    }
  }
  for (int c = 0; c < nc; ++c) {
    float* dst = u.dst + static_cast<std::size_t>(c0 + c) * spatial;
    if (u.mask == 0xFFFFu) {
      _mm256_storeu_ps(dst, acc[c][0]);
      _mm256_storeu_ps(dst + 8, acc[c][1]);
      continue;
    }
    alignas(32) float tmp[kTile];
    _mm256_store_ps(tmp, acc[c][0]);
    _mm256_store_ps(tmp + 8, acc[c][1]);
    for (int l = 0, n = 0; l < kTile; ++l)
      if ((u.mask >> l) & 1u) dst[n++] = tmp[l];
  }
}

#else

void conv_unit_avx2(const ConvPlan&, const WeightPack&, int, const float*,
                    const Unit&, std::size_t) {
  RP_REQUIRE(false, "avx2 float conv kernel not compiled in");
}

#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)

// Channels [c0, c0 + CB) of NT tiles; weight blocks are 8 wide, so a
// CB = 4 call covers the first half of its block.  The epilogue
// compresses each tile's valid lanes to the front and stores one run.
template <int CB, int NT>
void conv_units_avx512(const ConvPlan& p, const WeightPack& wp, int c0,
                       const float* bias, const Unit* u,
                       std::size_t spatial) {
  const std::int32_t* taps = p.taps.data();
  const std::size_t blk = static_cast<std::size_t>(c0 / 8);
  const float* wb = wp.w.data() + blk * p.k * 8;
  const std::uint8_t* sparse = wp.sparse.data() + blk * p.k;
  const int nc = std::min(CB, p.s.cout - c0);
  __m512 acc[NT][CB];
  for (int c = 0; c < CB; ++c) {
    const __m512 base =
        _mm512_set1_ps(bias != nullptr && c < nc ? bias[c0 + c] : 0.0f);
    for (int n = 0; n < NT; ++n) acc[n][c] = base;
  }
  for (int t = 0; t < p.k; ++t) {
    __m512 x[NT];
    for (int n = 0; n < NT; ++n) x[n] = _mm512_loadu_ps(u[n].src + taps[t]);
    const float* w = wb + static_cast<std::size_t>(t) * 8;
    if (sparse[t] == 0) {
#pragma GCC unroll 8
      for (int c = 0; c < CB; ++c) {
        const __m512 wv = _mm512_set1_ps(w[c]);
        for (int n = 0; n < NT; ++n)
          acc[n][c] = _mm512_fmadd_ps(wv, x[n], acc[n][c]);
      }
    } else {
      for (int c = 0; c < CB; ++c) {
        if (w[c] == 0.0f) continue;
        const __m512 wv = _mm512_set1_ps(w[c]);
        for (int n = 0; n < NT; ++n)
          acc[n][c] = _mm512_fmadd_ps(wv, x[n], acc[n][c]);
      }
    }
  }
  for (int n = 0; n < NT; ++n) {
    const __mmask16 store =
        static_cast<__mmask16>((1u << std::popcount(u[n].mask)) - 1u);
    for (int c = 0; c < nc; ++c)
      _mm512_mask_storeu_ps(
          u[n].dst + static_cast<std::size_t>(c0 + c) * spatial, store,
          _mm512_maskz_compress_ps(u[n].mask, acc[n][c]));
  }
}

// Every channel block of NT tiles.
template <int NT>
void conv_units_vnni(const ConvPlan& p, const WeightPack& wp,
                     const float* bias, const Unit* u, std::size_t spatial) {
  for (int c0 = 0; c0 < p.s.cout; c0 += 8) {
    if (p.s.cout - c0 <= 4) {
      conv_units_avx512<4, NT>(p, wp, c0, bias, u, spatial);
    } else {
      conv_units_avx512<8, NT>(p, wp, c0, bias, u, spatial);
    }
  }
}

#else

template <int NT>
void conv_units_vnni(const ConvPlan&, const WeightPack&, const float*,
                     const Unit*, std::size_t) {
  RP_REQUIRE(false, "vnni float conv kernel not compiled in");
}

#endif  // AVX-512 VNNI

// Per-thread scratch, its own instance (not qconv's); capacity sticks at
// the largest chunk seen.
struct FloatConvScratch {
  ConvPlan plan;
  // Phase planes of one chunk, slack included (naive and portable: of one
  // sample, or its im2col matrix).
  std::vector<float> planes;
  std::vector<Unit> units;    // the chunk's tiles that store outputs
  WeightPack wpack;
  std::vector<float> acc;     // one channel's grid rows (naive, portable)
};

// Naive and portable, one sample at a time.  The lanes run over the
// sample's grid rows 0 .. oh-1 and stop at the last output, so a row's
// wq - ow padding columns are computed only between rows.  Where those
// columns make up over 40% more lanes than outputs (a padded 3x3 conv on a
// 3x3 map: 13 lanes for 9 outputs) the grid loses to im2col + gemm_nn, so
// those shapes run that composition unchanged.  Both were timed on every
// bench_kernels conv shape on the portable backend; the grid was as fast
// or faster on all the others.  Either way each output runs the same
// chain.
void conv_scalar(const float* x, const float* wgt, const float* bias,
                 float* y, FloatConvScratch& sc) {
  const ConvPlan& p = sc.plan;
  const std::size_t spatial = static_cast<std::size_t>(p.oh) * p.ow;
  const std::size_t lanes = static_cast<std::size_t>(p.oh - 1) * p.wq + p.ow;
  const bool grid = 5 * lanes <= 7 * spatial;
  const std::size_t src_size =
      grid ? p.sample_stride : static_cast<std::size_t>(p.k) * spatial;
  if (sc.planes.size() < src_size) sc.planes.resize(src_size);
  if (grid && sc.acc.size() < lanes) sc.acc.resize(lanes);
  const std::size_t in_sample =
      static_cast<std::size_t>(p.s.cin) * p.s.h * p.s.w;
  for (int b = 0; b < p.s.batch; ++b) {
    const float* xb = x + static_cast<std::size_t>(b) * in_sample;
    float* yb = y + static_cast<std::size_t>(b) * p.s.cout * spatial;
    if (grid) {
      build_planes(p, xb, sc.planes.data());
      conv_sample_scalar(p, wgt, bias, sc.planes.data(), lanes, yb,
                         sc.acc.data());
      continue;
    }
    for (int co = 0; co < p.s.cout; ++co)
      std::fill_n(yb + static_cast<std::size_t>(co) * spatial, spatial,
                  bias != nullptr ? bias[co] : 0.0f);
    im2col(xb, p.s, sc.planes.data());
    detail::portable_gemm_nn(wgt, sc.planes.data(), yb, p.s.cout, p.k,
                             static_cast<int>(spatial));
  }
}

// avx2 and vnni: the chunk's samples are built into phase planes, then
// every stored tile runs the backend's microkernel per channel block.
void conv_simd(const float* x, const float* wgt, const float* bias, float* y,
               bool vnni, FloatConvScratch& sc) {
  const ConvPlan& p = sc.plan;
  pack_weights(p, wgt, vnni ? 8 : 4, sc.wpack);
  const int per_chunk = static_cast<int>(std::clamp<std::size_t>(
      kChunkBytes / (p.sample_stride * sizeof(float)), 1,
      static_cast<std::size_t>(p.s.batch)));
  const std::size_t planes_size =
      static_cast<std::size_t>(per_chunk) * p.sample_stride;
  if (sc.planes.size() < planes_size) sc.planes.resize(planes_size);
  float* planes = sc.planes.data();

  const std::size_t in_sample =
      static_cast<std::size_t>(p.s.cin) * p.s.h * p.s.w;
  const std::size_t spatial = static_cast<std::size_t>(p.oh) * p.ow;
  const std::size_t out_sample = static_cast<std::size_t>(p.s.cout) * spatial;
  std::vector<Unit>& units = sc.units;

  for (int b0 = 0; b0 < p.s.batch; b0 += per_chunk) {
    const int nb = std::min(per_chunk, p.s.batch - b0);
    units.clear();
    for (int bl = 0; bl < nb; ++bl) {
      float* src = planes + static_cast<std::size_t>(bl) * p.sample_stride;
      build_planes(p, x + static_cast<std::size_t>(b0 + bl) * in_sample, src);
      float* out = y + static_cast<std::size_t>(b0 + bl) * out_sample;
      for (int t = 0; t < p.tiles; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        if (p.tile_mask[ti] == 0) continue;
        units.push_back({src + ti * kTile, p.tile_mask[ti],
                         out + static_cast<std::size_t>(p.tile_out[ti])});
      }
    }
    if (!vnni) {
      for (const Unit& u : units)
        for (int c0 = 0; c0 < p.s.cout; c0 += 4)
          conv_unit_avx2(p, sc.wpack, c0, bias, u, spatial);
      continue;
    }
    std::size_t i = 0;
    for (; i + 2 <= units.size(); i += 2)
      conv_units_vnni<2>(p, sc.wpack, bias, &units[i], spatial);
    if (i < units.size())
      conv_units_vnni<1>(p, sc.wpack, bias, &units[i], spatial);
  }
}

}  // namespace

void conv(const float* x, const float* wgt, const float* bias,
          const ConvShape& shape, float* y) {
  RP_REQUIRE(shape.batch >= 1 && shape.cin >= 1 && shape.cout >= 1 &&
                 shape.kh >= 1 && shape.kw >= 1 && shape.stride_h >= 1 &&
                 shape.stride_w >= 1 && shape.pad_h >= 0 && shape.pad_w >= 0,
             "conv: bad shape");
  RP_REQUIRE(shape.out_h() > 0 && shape.out_w() > 0,
             "conv: output would be empty");
  telemetry::Histogram* hist = detail::bound_gemm_histogram();
  const auto t0 = hist != nullptr ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};

  static thread_local FloatConvScratch scratch;
  scratch.plan.reset(shape);
  const Backend be = active_backend();
  if (be == Backend::kNaive || be == Backend::kPortable) {
    conv_scalar(x, wgt, bias, y, scratch);
  } else {
    conv_simd(x, wgt, bias, y, be == Backend::kVnni, scratch);
  }
  if (hist != nullptr)
    hist->record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
}

namespace {

// Interior output columns [j_lo, j_hi) of tap column kj: the j whose input
// column j*sw - pad_w + kj lies in [0, w).  Outside them the tap reads a
// pad zero (im2col) or has no image cell (col2im).
void interior_columns(const ConvShape& s, int ow, int kj, int& j_lo,
                      int& j_hi) {
  const int sw = s.stride_w, pad = s.pad_w;
  j_lo = pad - kj > 0 ? (pad - kj + sw - 1) / sw : 0;
  if (j_lo > ow) j_lo = ow;
  j_hi = s.w - 1 - kj + pad < 0 ? 0 : (s.w - 1 - kj + pad) / sw + 1;
  if (j_hi > ow) j_hi = ow;
  if (j_hi < j_lo) j_hi = j_lo;
}

}  // namespace

void im2col(const float* x, const ConvShape& s, float* col) {
  const int oh = s.out_h(), ow = s.out_w();
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  for (int ci = 0; ci < s.cin; ++ci) {
    const float* plane = x + static_cast<std::size_t>(ci) * s.h * s.w;
    for (int ki = 0; ki < s.kh; ++ki) {
      for (int kj = 0; kj < s.kw; ++kj) {
        float* crow =
            col + ((static_cast<std::size_t>(ci) * s.kh + ki) * s.kw + kj) *
                      spatial;
        // Each output row is a zero prefix, an unchecked contiguous or
        // strided copy, and a zero suffix: no per-element bounds tests.
        int j_lo = 0, j_hi = 0;
        interior_columns(s, ow, kj, j_lo, j_hi);
        for (int i = 0; i < oh; ++i) {
          const int hi = i * s.stride_h - s.pad_h + ki;
          float* dst = crow + static_cast<std::size_t>(i) * ow;
          if (hi < 0 || hi >= s.h) {
            std::fill_n(dst, ow, 0.0f);
            continue;
          }
          const float* src = plane + static_cast<std::size_t>(hi) * s.w;
          std::fill_n(dst, j_lo, 0.0f);
          if (s.stride_w == 1) {
            std::memcpy(dst + j_lo, src + (j_lo - s.pad_w + kj),
                        static_cast<std::size_t>(j_hi - j_lo) * sizeof(float));
          } else {
            for (int j = j_lo; j < j_hi; ++j)
              dst[j] = src[j * s.stride_w - s.pad_w + kj];
          }
          std::fill_n(dst + j_hi, ow - j_hi, 0.0f);
        }
      }
    }
  }
}

namespace {

// Adjoint of im2col: scatter-adds col back into x[cin, h, w].
void col2im(const float* col, const ConvShape& s, float* x) {
  const int oh = s.out_h(), ow = s.out_w();
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  for (int ci = 0; ci < s.cin; ++ci) {
    float* plane = x + static_cast<std::size_t>(ci) * s.h * s.w;
    for (int ki = 0; ki < s.kh; ++ki) {
      for (int kj = 0; kj < s.kw; ++kj) {
        const float* crow =
            col + ((static_cast<std::size_t>(ci) * s.kh + ki) * s.kw + kj) *
                      spatial;
        // Only the interior scatters: each target gets exactly one add per
        // tap, in (ci, ki, kj, i, j) order.
        int j_lo = 0, j_hi = 0;
        interior_columns(s, ow, kj, j_lo, j_hi);
        for (int i = 0; i < oh; ++i) {
          const int hi = i * s.stride_h - s.pad_h + ki;
          if (hi < 0 || hi >= s.h) continue;
          float* dst = plane + static_cast<std::size_t>(hi) * s.w;
          const float* srow = crow + static_cast<std::size_t>(i) * ow;
          if (s.stride_w == 1) {
            float* d = dst + (j_lo - s.pad_w + kj);
            for (int j = j_lo; j < j_hi; ++j) d[j - j_lo] += srow[j];
          } else {
            for (int j = j_lo; j < j_hi; ++j)
              dst[j * s.stride_w - s.pad_w + kj] += srow[j];
          }
        }
      }
    }
  }
}

}  // namespace

void conv_backward(const float* x, const float* wgt, const float* grad_out,
                   const ConvShape& shape, float* wgrad, float* bias_grad,
                   float* grad_in) {
  const int patch = shape.patch(), cout = shape.cout;
  const int spatial = shape.out_h() * shape.out_w();
  const std::size_t in_sample =
      static_cast<std::size_t>(shape.cin) * shape.h * shape.w;
  const std::size_t col_size = static_cast<std::size_t>(patch) * spatial;
  static thread_local std::vector<float> col, gcol;
  if (col.size() < col_size) col.resize(col_size);
  if (gcol.size() < col_size) gcol.resize(col_size);
  for (int b = 0; b < shape.batch; ++b) {
    const float* g =
        grad_out + static_cast<std::size_t>(b) * cout * spatial;
    // dW[cout, patch] += g[cout, spatial] * col^T (col as [patch, spatial]).
    im2col(x + b * in_sample, shape, col.data());
    gemm_nt(g, col.data(), wgrad, cout, spatial, patch);
    if (bias_grad != nullptr) {
      for (int co = 0; co < cout; ++co) {
        float acc = 0.0f;
        for (int s = 0; s < spatial; ++s)
          acc += g[static_cast<std::size_t>(co) * spatial + s];
        bias_grad[co] += acc;
      }
    }
    // dcol[patch, spatial] = W^T[patch, cout] * g[cout, spatial]
    std::fill_n(gcol.data(), col_size, 0.0f);
    gemm_tn(wgt, g, gcol.data(), cout, patch, spatial);
    col2im(gcol.data(), shape, grad_in + b * in_sample);
  }
}

}  // namespace rowpress::nn::kernels
