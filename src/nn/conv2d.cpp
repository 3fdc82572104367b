#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/kernels/kernels.h"
#include "nn/kernels/qgemm.h"

namespace rowpress::nn {
namespace {

// im2col: expands input [Cin,H,W] into a matrix [Cin*k*k, OH*OW] so the
// convolution becomes one GEMM per sample.  Out-of-bounds taps are zero.
void im2col(const float* x, int cin, int h, int w, int k, int stride, int pad,
            int oh, int ow, float* col) {
  for (int ci = 0; ci < cin; ++ci) {
    const float* plane = x + static_cast<std::size_t>(ci) * h * w;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj) {
        float* crow = col + ((static_cast<std::size_t>(ci) * k + ki) * k + kj) *
                                (static_cast<std::size_t>(oh) * ow);
        // Interior columns for this tap: j*stride - pad + kj in [0, w).
        // Outside them the tap is a pad zero, so each output row is a
        // zero prefix, an unchecked contiguous/strided copy, and a zero
        // suffix — no per-element bounds tests on the hot path.
        int j_lo = pad - kj > 0 ? (pad - kj + stride - 1) / stride : 0;
        if (j_lo > ow) j_lo = ow;
        int j_hi = w - 1 - kj + pad < 0 ? 0 : (w - 1 - kj + pad) / stride + 1;
        if (j_hi > ow) j_hi = ow;
        if (j_hi < j_lo) j_hi = j_lo;
        for (int i = 0; i < oh; ++i) {
          const int hi = i * stride - pad + ki;
          float* dst = crow + static_cast<std::size_t>(i) * ow;
          if (hi < 0 || hi >= h) {
            std::fill_n(dst, ow, 0.0f);
            continue;
          }
          const float* src = plane + static_cast<std::size_t>(hi) * w;
          std::fill_n(dst, j_lo, 0.0f);
          if (stride == 1) {
            std::memcpy(dst + j_lo, src + (j_lo - pad + kj),
                        static_cast<std::size_t>(j_hi - j_lo) * sizeof(float));
          } else {
            for (int j = j_lo; j < j_hi; ++j)
              dst[j] = src[j * stride - pad + kj];
          }
          std::fill_n(dst + j_hi, ow - j_hi, 0.0f);
        }
      }
    }
  }
}

// col2im: scatter-adds a [Cin*k*k, OH*OW] gradient matrix back to [Cin,H,W].
void col2im(const float* col, int cin, int h, int w, int k, int stride,
            int pad, int oh, int ow, float* x) {
  for (int ci = 0; ci < cin; ++ci) {
    float* plane = x + static_cast<std::size_t>(ci) * h * w;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj) {
        const float* crow =
            col + ((static_cast<std::size_t>(ci) * k + ki) * k + kj) *
                      (static_cast<std::size_t>(oh) * ow);
        // Same interior-column bounds as im2col; out-of-range taps have
        // no image cell, so only the interior scatters (each target gets
        // exactly one add per tap — element-independent, bit-exact).
        int j_lo = pad - kj > 0 ? (pad - kj + stride - 1) / stride : 0;
        if (j_lo > ow) j_lo = ow;
        int j_hi = w - 1 - kj + pad < 0 ? 0 : (w - 1 - kj + pad) / stride + 1;
        if (j_hi > ow) j_hi = ow;
        if (j_hi < j_lo) j_hi = j_lo;
        for (int i = 0; i < oh; ++i) {
          const int hi = i * stride - pad + ki;
          if (hi < 0 || hi >= h) continue;
          float* dst = plane + static_cast<std::size_t>(hi) * w;
          const float* srow = crow + static_cast<std::size_t>(i) * ow;
          if (stride == 1) {
            float* d = dst + (j_lo - pad + kj);
            for (int j = j_lo; j < j_hi; ++j) d[j - j_lo] += srow[j];
          } else {
            for (int j = j_lo; j < j_hi; ++j)
              dst[j * stride - pad + kj] += srow[j];
          }
        }
      }
    }
  }
}

}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng, bool bias, std::string name_prefix)
    : cin_(in_channels), cout_(out_channels), k_(kernel), stride_(stride),
      pad_(pad), has_bias_(bias),
      weight_(name_prefix + ".weight",
              Tensor::randn({out_channels, in_channels, kernel, kernel}, rng,
                            std::sqrt(2.0f / static_cast<float>(
                                                 in_channels * kernel * kernel))),
              /*attack=*/true),
      bias_(name_prefix + ".bias", Tensor::zeros({out_channels}),
            /*attack=*/false) {
  RP_REQUIRE(kernel > 0 && stride > 0 && pad >= 0, "bad conv hyperparams");
}

Tensor Conv2d::forward(const Tensor& x) {
  RP_REQUIRE(x.ndim() == 4 && x.dim(1) == cin_,
             "conv2d input must be [N, Cin, H, W]");
  cached_input_ = x;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_size(h), ow = out_size(w);
  RP_REQUIRE(oh > 0 && ow > 0, "conv2d output would be empty");
  const int patch = cin_ * k_ * k_;
  const int spatial = oh * ow;

  Tensor y({n, cout_, oh, ow});
  float* yp = y.data();
  const float* xp = x.cdata();
  const float* wp = weight_.value.cdata();

  // Int8 path: one fused kernel call quantizes the patches, runs the int8
  // GEMM and requantizes (kernels/qgemm.h).  The float path below stays
  // the reference oracle; backward always runs float.
  if (const QuantWeight* qw = weight_.qweight; qw != nullptr) {
    RP_REQUIRE(qw->rows == cout_ && qw->cols == patch,
               "conv2d int8 weight view shape mismatch");
    kernels::qconv(xp, qw->q.data(), qw->row_sums.data(), qw->scales.data(),
                   has_bias_ ? bias_.value.cdata() : nullptr,
                   {.batch = n, .cin = cin_, .h = h, .w = w, .cout = cout_,
                    .kh = k_, .kw = k_, .stride_h = stride_,
                    .stride_w = stride_, .pad_h = pad_, .pad_w = pad_},
                   yp);
    return y;
  }

  const std::size_t col_size = static_cast<std::size_t>(patch) * spatial;
  if (col_.size() < col_size) col_.resize(col_size);
  for (int b = 0; b < n; ++b) {
    im2col(xp + static_cast<std::size_t>(b) * cin_ * h * w, cin_, h, w, k_,
           stride_, pad_, oh, ow, col_.data());
    float* out = yp + static_cast<std::size_t>(b) * cout_ * spatial;
    if (has_bias_) {
      const float* bp = bias_.value.cdata();
      for (int co = 0; co < cout_; ++co)
        std::fill_n(out + static_cast<std::size_t>(co) * spatial, spatial,
                    bp[co]);
    }
    // y[cout, spatial] += W[cout, patch] * col[patch, spatial]
    kernels::gemm_nn(wp, col_.data(), out, cout_, patch, spatial);
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = grad_out.dim(2), ow = grad_out.dim(3);
  const int patch = cin_ * k_ * k_;
  const int spatial = oh * ow;

  Tensor grad_in(x.shape());
  float* gip = grad_in.data();
  const float* xp = x.cdata();
  const float* gp = grad_out.cdata();
  const float* wp = weight_.value.cdata();
  float* wg = weight_.grad.data();
  const std::size_t col_size = static_cast<std::size_t>(patch) * spatial;
  if (col_.size() < col_size) col_.resize(col_size);
  if (gcol_.size() < col_size) gcol_.resize(col_size);
  for (int b = 0; b < n; ++b) {
    const float* g = gp + static_cast<std::size_t>(b) * cout_ * spatial;
    // dW[cout, patch] += g[cout, spatial] * col^T (col as [patch, spatial]).
    im2col(xp + static_cast<std::size_t>(b) * cin_ * h * w, cin_, h, w, k_,
           stride_, pad_, oh, ow, col_.data());
    kernels::gemm_nt(g, col_.data(), wg, cout_, spatial, patch);
    if (has_bias_) {
      float* bg = bias_.grad.data();
      for (int co = 0; co < cout_; ++co) {
        float acc = 0.0f;
        for (int s = 0; s < spatial; ++s)
          acc += g[static_cast<std::size_t>(co) * spatial + s];
        bg[co] += acc;
      }
    }
    // dcol[patch, spatial] = W^T[patch, cout] * g[cout, spatial]
    std::fill_n(gcol_.data(), col_size, 0.0f);
    kernels::gemm_tn(wp, g, gcol_.data(), cout_, patch, spatial);
    col2im(gcol_.data(), cin_, h, w, k_, stride_, pad_, oh, ow,
           gip + static_cast<std::size_t>(b) * cin_ * h * w);
  }
  return grad_in;
}

std::vector<Param*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace rowpress::nn
