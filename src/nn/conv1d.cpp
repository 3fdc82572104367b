#include "nn/conv1d.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels/kernels.h"
#include "nn/kernels/qgemm.h"

namespace rowpress::nn {
namespace {

// im2col for 1-D: expands [Cin, L] into [Cin*k, OL] so the convolution is
// one GEMM per sample (same scheme as Conv2d).
void im2col1d(const float* x, int cin, int len, int k, int stride, int pad,
              int ol, float* col) {
  for (int ci = 0; ci < cin; ++ci) {
    const float* line = x + static_cast<std::size_t>(ci) * len;
    for (int ki = 0; ki < k; ++ki) {
      float* crow = col + (static_cast<std::size_t>(ci) * k + ki) *
                              static_cast<std::size_t>(ol);
      for (int i = 0; i < ol; ++i) {
        const int li = i * stride - pad + ki;
        crow[i] = (li >= 0 && li < len) ? line[li] : 0.0f;
      }
    }
  }
}

void col2im1d(const float* col, int cin, int len, int k, int stride, int pad,
              int ol, float* x) {
  for (int ci = 0; ci < cin; ++ci) {
    float* line = x + static_cast<std::size_t>(ci) * len;
    for (int ki = 0; ki < k; ++ki) {
      const float* crow = col + (static_cast<std::size_t>(ci) * k + ki) *
                                    static_cast<std::size_t>(ol);
      for (int i = 0; i < ol; ++i) {
        const int li = i * stride - pad + ki;
        if (li >= 0 && li < len) line[li] += crow[i];
      }
    }
  }
}

}  // namespace

Conv1d::Conv1d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng, bool bias, std::string name_prefix)
    : cin_(in_channels), cout_(out_channels), k_(kernel), stride_(stride),
      pad_(pad), has_bias_(bias),
      weight_(name_prefix + ".weight",
              Tensor::randn({out_channels, in_channels, kernel}, rng,
                            std::sqrt(2.0f / static_cast<float>(in_channels *
                                                                kernel))),
              /*attack=*/true),
      bias_(name_prefix + ".bias", Tensor::zeros({out_channels}),
            /*attack=*/false) {
  RP_REQUIRE(kernel > 0 && stride > 0 && pad >= 0, "bad conv1d hyperparams");
}

Tensor Conv1d::forward(const Tensor& x) {
  RP_REQUIRE(x.ndim() == 3 && x.dim(1) == cin_,
             "conv1d input must be [N, Cin, L]");
  cached_input_ = x;
  const int n = x.dim(0), len = x.dim(2);
  const int ol = out_size(len);
  RP_REQUIRE(ol > 0, "conv1d output would be empty");
  const int patch = cin_ * k_;

  Tensor y({n, cout_, ol});
  float* yp = y.data();
  const float* xp = x.cdata();
  const float* wp = weight_.value.cdata();

  // Int8 path: the fused conv kernel on a height-1 image (see
  // Conv2d::forward).
  if (const QuantWeight* qw = weight_.qweight; qw != nullptr) {
    RP_REQUIRE(qw->rows == cout_ && qw->cols == patch,
               "conv1d int8 weight view shape mismatch");
    kernels::qconv(xp, qw->q.data(), qw->row_sums.data(), qw->scales.data(),
                   has_bias_ ? bias_.value.cdata() : nullptr,
                   {.batch = n, .cin = cin_, .h = 1, .w = len, .cout = cout_,
                    .kh = 1, .kw = k_, .stride_h = 1, .stride_w = stride_,
                    .pad_h = 0, .pad_w = pad_},
                   yp);
    return y;
  }

  const std::size_t col_size = static_cast<std::size_t>(patch) * ol;
  if (col_.size() < col_size) col_.resize(col_size);
  for (int b = 0; b < n; ++b) {
    im2col1d(xp + static_cast<std::size_t>(b) * cin_ * len, cin_, len, k_,
             stride_, pad_, ol, col_.data());
    float* out = yp + static_cast<std::size_t>(b) * cout_ * ol;
    if (has_bias_) {
      const float* bp = bias_.value.cdata();
      for (int co = 0; co < cout_; ++co)
        std::fill_n(out + static_cast<std::size_t>(co) * ol, ol, bp[co]);
    }
    kernels::gemm_nn(wp, col_.data(), out, cout_, patch, ol);
  }
  return y;
}

Tensor Conv1d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const int n = x.dim(0), len = x.dim(2);
  const int ol = grad_out.dim(2);
  const int patch = cin_ * k_;

  Tensor grad_in(x.shape());
  float* gip = grad_in.data();
  const float* xp = x.cdata();
  const float* gp = grad_out.cdata();
  const float* wp = weight_.value.cdata();
  float* wg = weight_.grad.data();
  const std::size_t col_size = static_cast<std::size_t>(patch) * ol;
  if (col_.size() < col_size) col_.resize(col_size);
  if (gcol_.size() < col_size) gcol_.resize(col_size);
  for (int b = 0; b < n; ++b) {
    const float* g = gp + static_cast<std::size_t>(b) * cout_ * ol;
    im2col1d(xp + static_cast<std::size_t>(b) * cin_ * len, cin_, len, k_,
             stride_, pad_, ol, col_.data());
    // dW[cout, patch] += g[cout, ol] * col^T
    kernels::gemm_nt(g, col_.data(), wg, cout_, ol, patch);
    if (has_bias_) {
      float* bg = bias_.grad.data();
      for (int co = 0; co < cout_; ++co) {
        float acc = 0.0f;
        for (int i = 0; i < ol; ++i)
          acc += g[static_cast<std::size_t>(co) * ol + i];
        bg[co] += acc;
      }
    }
    // dcol = W^T * g
    std::fill_n(gcol_.data(), col_size, 0.0f);
    kernels::gemm_tn(wp, g, gcol_.data(), cout_, patch, ol);
    col2im1d(gcol_.data(), cin_, len, k_, stride_, pad_, ol,
             gip + static_cast<std::size_t>(b) * cin_ * len);
  }
  return grad_in;
}

std::vector<Param*> Conv1d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace rowpress::nn
