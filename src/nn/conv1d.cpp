#include "nn/conv1d.h"

#include <cmath>

#include "nn/kernels/kernels.h"
#include "nn/kernels/qgemm.h"

namespace rowpress::nn {

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

  Tensor y({n, cout_, ol});
  float* yp = y.data();
  const float* xp = x.cdata();
  // The fused conv kernels on a height-1 image (see Conv2d::forward).
  const kernels::ConvShape shape{
      .batch = n, .cin = cin_, .h = 1, .w = len, .cout = cout_, .kh = 1,
      .kw = k_, .stride_h = 1, .stride_w = stride_, .pad_h = 0,
      .pad_w = pad_};
  const float* bp = has_bias_ ? bias_.value.cdata() : nullptr;
  if (const QuantWeight* qw = weight_.qweight; qw != nullptr) {
    RP_REQUIRE(qw->rows == cout_ && qw->cols == shape.patch(),
               "conv1d int8 weight view shape mismatch");
    kernels::qconv(xp, qw->q.data(), qw->row_sums.data(), qw->scales.data(),
                   bp, shape, yp);
  } else {
    kernels::conv(xp, weight_.value.cdata(), bp, shape, yp);
  }
  return y;
}

Tensor Conv1d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const kernels::ConvShape shape{
      .batch = x.dim(0), .cin = cin_, .h = 1, .w = x.dim(2), .cout = cout_,
      .kh = 1, .kw = k_, .stride_h = 1, .stride_w = stride_, .pad_h = 0,
      .pad_w = pad_};
  Tensor grad_in(x.shape());
  kernels::conv_backward(x.cdata(), weight_.value.cdata(), grad_out.cdata(),
                         shape, weight_.grad.data(),
                         has_bias_ ? bias_.grad.data() : nullptr,
                         grad_in.data());
  return grad_in;
}

std::vector<Param*> Conv1d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace rowpress::nn
