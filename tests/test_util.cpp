#include "test_util.h"

#include <algorithm>
#include <cstring>

#include <gtest/gtest.h>

#include "common/crc32.h"

namespace rowpress::testutil {
namespace {

double loss_of(nn::Module& m, const nn::Tensor& x, const nn::Tensor& g) {
  const nn::Tensor y = m.forward(x);
  double acc = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i)
    acc += static_cast<double>(y[i]) * g[i];
  return acc;
}

}  // namespace

GradCheckResult grad_check(nn::Module& m, const std::vector<int>& in_shape,
                           Rng& rng, int samples_per_tensor, double eps) {
  nn::Tensor x = nn::Tensor::randn(in_shape, rng);
  const nn::Tensor y0 = m.forward(x);
  const nn::Tensor g = nn::Tensor::randn(y0.shape(), rng);

  // Analytic gradients.
  m.zero_grad();
  m.forward(x);
  const nn::Tensor dx = m.backward(g);

  GradCheckResult res;
  auto check_coord = [&](float* slot, double analytic) {
    const float saved = *slot;
    *slot = saved + static_cast<float>(eps);
    const double lp = loss_of(m, x, g);
    *slot = saved - static_cast<float>(eps);
    const double lm = loss_of(m, x, g);
    *slot = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    const double denom =
        std::max({std::fabs(numeric), std::fabs(analytic), 1e-3});
    res.max_rel_error =
        std::max(res.max_rel_error, std::fabs(numeric - analytic) / denom);
    ++res.checked;
  };

  // Input gradient sample.
  for (int s = 0; s < samples_per_tensor; ++s) {
    const std::int64_t i = static_cast<std::int64_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(x.numel())));
    check_coord(&x[i], dx[i]);
  }
  // Parameter gradient samples.
  for (nn::Param* p : m.parameters()) {
    const int n = static_cast<int>(
        std::min<std::int64_t>(samples_per_tensor, p->value.numel()));
    for (int s = 0; s < n; ++s) {
      const std::int64_t i = static_cast<std::int64_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(p->value.numel())));
      check_coord(&p->value[i], p->grad[i]);
    }
  }
  return res;
}

std::uint32_t chain_crc(const std::vector<attack::FlipRecord>& flips) {
  std::uint32_t crc = 0;
  for (const attack::FlipRecord& f : flips) {
    const std::int64_t fields[3] = {f.ref.param_index, f.ref.weight_index,
                                    f.ref.bit};
    std::uint64_t loss_bits = 0, acc_bits = 0;
    std::memcpy(&loss_bits, &f.loss_after, sizeof loss_bits);
    std::memcpy(&acc_bits, &f.accuracy_after, sizeof acc_bits);
    crc = crc32(fields, sizeof fields, crc);
    crc = crc32(&loss_bits, sizeof loss_bits, crc);
    crc = crc32(&acc_bits, sizeof acc_bits, crc);
  }
  return crc;
}

void expect_chain_golden(const std::vector<attack::FlipRecord>& flips,
                         std::size_t length, std::uint32_t crc) {
#ifndef RP_CHAIN_PINS
  GTEST_SKIP() << "golden chain pins hold only on the Release -march=native "
                  "build without sanitizers they were recorded on";
#endif
  EXPECT_EQ(flips.size(), length);
  EXPECT_EQ(chain_crc(flips), crc);
}

}  // namespace rowpress::testutil
