#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/crc32.h"

namespace perfbench {

double supported_quantile(std::int64_t n) {
  // Per-mille quantiles, so "samples beyond" is exact integer arithmetic.
  for (const std::int64_t pm : {999, 990, 950, 900, 750}) {
    if (n * (1000 - pm) / 1000 >= 10) return static_cast<double>(pm) / 1000.0;
  }
  return 0.5;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

Tail summarize(std::vector<double> samples) {
  Tail t;
  t.n = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return t;
  t.q = supported_quantile(t.n);
  t.p50 = quantile(samples, 0.5);
  t.tail = quantile(std::move(samples), t.q);
  return t;
}

std::vector<double> geometric_ladder(double lo, double hi, double step) {
  if (!(lo > 0.0) || !(step > 1.0) || step > 1.10 + 1e-12)
    throw std::invalid_argument("ladder needs lo > 0 and 1 < step <= 1.10");
  std::vector<double> rungs{lo};
  while (rungs.back() < hi) rungs.push_back(rungs.back() * step);
  return rungs;
}

LadderResult search_ladder(int rungs, const std::function<Verdict(int)>& probe,
                           int retries) {
  LadderResult r;
  int pass = -1;    // highest rung known to pass
  int fail = rungs; // lowest rung known to fail
  while (fail - pass > 1) {
    const int mid = pass + (fail - pass) / 2;
    Verdict v = Verdict::kInvalid;
    for (int attempt = 0; attempt <= retries; ++attempt) {
      v = probe(mid);
      ++r.probes;
      if (v != Verdict::kInvalid) break;
      ++r.invalid;
    }
    if (v == Verdict::kPass)
      pass = mid;
    else
      fail = mid;
  }
  r.best = pass;
  return r;
}

ChainCrc& ChainCrc::add(std::int64_t v) {
  crc_ = rowpress::crc32(&v, sizeof v, crc_);
  return *this;
}

ChainCrc& ChainCrc::add(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  crc_ = rowpress::crc32(&bits, sizeof bits, crc_);
  return *this;
}

ChainCrc& ChainCrc::add(const std::string& s) {
  add(static_cast<std::int64_t>(s.size()));
  crc_ = rowpress::crc32(s, crc_);
  return *this;
}

}  // namespace perfbench
