// Pure helpers of the benchmark driver, kept free of the library's
// subsystems so tests/test_ledger.cpp can pin them exactly:
//
//   - the percentile rule: a timing is reported as its median plus the
//     highest percentile that still has at least ten samples beyond it,
//     together with the sample count;
//   - the rate-ladder search behind serve_slo_rps;
//   - the flip-chain CRC used by the determinism gates.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Highest quantile of {0.999, 0.99, 0.95, 0.9, 0.75, 0.5} that has at
/// least 10 of `n` samples beyond it; 0.5 when none has (n < 20).
double supported_quantile(std::int64_t n);

/// q-quantile by linear interpolation between order statistics (the
/// definition numpy and Python's statistics module call "inclusive").
/// Returns 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// A timing distribution under the percentile rule.
struct Tail {
  double p50 = 0.0;
  double q = 0.0;     ///< the tail quantile supported_quantile(n) chose
  double tail = 0.0;  ///< value at q
  std::int64_t n = 0;
};
Tail summarize(std::vector<double> samples);

/// Rate ladder with geometric steps: lo, lo*step, ... up to and including
/// the first rung >= hi.  Requires lo > 0 and 1 < step <= 1.10 (rungs at
/// most 10% apart).
std::vector<double> geometric_ladder(double lo, double hi, double step);

/// Outcome of one ladder rung.  kInvalid: the load generator fell behind
/// its schedule, so the rung measured the generator, not the server.
enum class Verdict { kPass, kFail, kInvalid };

struct LadderResult {
  int best = -1;      ///< highest passing rung index; -1 = none passed
  int probes = 0;     ///< rungs run, retries included
  int invalid = 0;    ///< probes that came back kInvalid
};

/// Binary search for the highest passing rung of `rungs`, assuming pass is
/// monotone (a rung passes only if every lower rung would).  An invalid
/// rung is re-run up to `retries` times; if it stays invalid it counts as
/// a failure — an invalid rung never reports a rate.
LadderResult search_ladder(int rungs, const std::function<Verdict(int)>& probe,
                           int retries = 1);

/// CRC-32 over a typed field sequence (a trial's flip chain and the
/// accuracies it produced).  Doubles hash by their bit pattern, so any
/// change in any digit changes the CRC.
class ChainCrc {
 public:
  ChainCrc& add(std::int64_t v);
  ChainCrc& add(double v);
  ChainCrc& add(const std::string& s);
  std::uint32_t value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

}  // namespace perfbench
