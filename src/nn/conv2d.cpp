#include "nn/conv2d.h"

#include <cmath>

#include "nn/kernels/kernels.h"
#include "nn/kernels/qgemm.h"

namespace rowpress::nn {

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

  Tensor y({n, cout_, oh, ow});
  float* yp = y.data();
  const float* xp = x.cdata();
  // One fused kernel call per forward: int8 (kernels/qgemm.h) when an
  // int8 weight view is installed, float (kernels/kernels.h) otherwise.
  // Backward always runs float, through im2col.
  const kernels::ConvShape shape{
      .batch = n, .cin = cin_, .h = h, .w = w, .cout = cout_, .kh = k_,
      .kw = k_, .stride_h = stride_, .stride_w = stride_, .pad_h = pad_,
      .pad_w = pad_};
  const float* bp = has_bias_ ? bias_.value.cdata() : nullptr;
  if (const QuantWeight* qw = weight_.qweight; qw != nullptr) {
    RP_REQUIRE(qw->rows == cout_ && qw->cols == shape.patch(),
               "conv2d int8 weight view shape mismatch");
    kernels::qconv(xp, qw->q.data(), qw->row_sums.data(), qw->scales.data(),
                   bp, shape, yp);
  } else {
    kernels::conv(xp, weight_.value.cdata(), bp, shape, yp);
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const kernels::ConvShape shape{
      .batch = x.dim(0), .cin = cin_, .h = x.dim(2), .w = x.dim(3),
      .cout = cout_, .kh = k_, .kw = k_, .stride_h = stride_,
      .stride_w = stride_, .pad_h = pad_, .pad_w = pad_};
  Tensor grad_in(x.shape());
  kernels::conv_backward(x.cdata(), weight_.value.cdata(), grad_out.cdata(),
                         shape, weight_.grad.data(),
                         has_bias_ ? bias_.grad.data() : nullptr,
                         grad_in.data());
  return grad_in;
}

std::vector<Param*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace rowpress::nn
