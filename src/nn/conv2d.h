// 2-D convolution (direct kernels, NCHW layout) with stride and symmetric
// zero padding — the workhorse of the ResNet models.
#pragma once

#include "nn/module.h"

namespace rowpress::nn {

class Conv2d final : public Module {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         Rng& rng, bool bias = false, std::string name_prefix = "conv");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> parameters() override;
  std::string name() const override { return "Conv2d"; }

  Param& weight() { return weight_; }

  int out_size(int in_size) const { return (in_size + 2 * pad_ - k_) / stride_ + 1; }

 private:
  int cin_, cout_, k_, stride_, pad_;
  bool has_bias_;
  Param weight_;  ///< [cout, cin, k, k]
  Param bias_;    ///< [cout]
  Tensor cached_input_;
  /// im2col scratch, reused across forward/backward calls (grown on demand)
  /// instead of reallocated per sample.
  std::vector<float> col_;
  std::vector<float> gcol_;
};

}  // namespace rowpress::nn
