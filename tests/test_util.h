// Shared helpers for the test suite: a small fast device configuration and
// a finite-difference gradient checker for NN modules.
#pragma once

#include <cmath>
#include <vector>

#include "attack/bfa.h"
#include "dram/device.h"
#include "nn/module.h"

namespace rowpress::testutil {

/// A small device so cell-model/profiling tests run in milliseconds.
inline dram::DeviceConfig small_device_config(std::uint64_t seed = 0xD12A3u) {
  dram::DeviceConfig cfg;
  cfg.geometry.num_banks = 2;
  cfg.geometry.rows_per_bank = 64;
  cfg.geometry.row_bytes = 256;
  cfg.seed = seed;
  return cfg;
}

/// A device configuration with dense, low-threshold vulnerable cells, for
/// tests that need guaranteed flips in specific rows.
inline dram::DeviceConfig dense_device_config(std::uint64_t seed = 99) {
  dram::DeviceConfig cfg = small_device_config(seed);
  cfg.cells.rh_density = 0.02;
  cfg.cells.rp_density = 0.05;
  cfg.cells.rh_log_median = 8.5;  // ~4.9 K median threshold
  cfg.cells.rh_log_sigma = 0.5;
  cfg.cells.rh_min_threshold = 1000;
  cfg.cells.rp_log_median = 12.0;  // ~163 us median
  cfg.cells.rp_log_sigma = 0.8;
  return cfg;
}

struct GradCheckResult {
  double max_rel_error = 0.0;
  int checked = 0;
};

/// Finite-difference gradient check.  Builds L = sum(forward(x) .* G) for a
/// fixed random G, compares the module's analytic input & parameter
/// gradients against central differences on a sample of coordinates.
GradCheckResult grad_check(nn::Module& m, const std::vector<int>& in_shape,
                           Rng& rng, int samples_per_tensor = 12,
                           double eps = 2e-3);

/// Golden-pin digest of a flip chain: CRC32 over every flip's
/// (param, weight, bit) followed by the bit patterns of its loss_after and
/// accuracy_after doubles.  Any change to which bits flip, in which order,
/// or to a single measured loss/accuracy bit changes the digest.
std::uint32_t chain_crc(const std::vector<attack::FlipRecord>& flips);

/// Expects a chain of `length` flips with digest `crc`; skips the test on
/// builds other than the one the pins were recorded on (see
/// tests/CMakeLists.txt).
void expect_chain_golden(const std::vector<attack::FlipRecord>& flips,
                         std::size_t length, std::uint32_t crc);

}  // namespace rowpress::testutil
