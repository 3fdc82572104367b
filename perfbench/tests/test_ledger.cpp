// Unit tests of the benchmark's pure helpers (perfbench/src/ledger.h).
// Plain asserts, no framework: run.py runs this binary after every build
// and refuses to benchmark when it fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "ledger.h"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "test_ledger:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_rule() {
  // At least 10 samples must lie beyond the reported tail quantile.
  CHECK(supported_quantile(0) == 0.5);
  CHECK(supported_quantile(19) == 0.5);
  CHECK(supported_quantile(40) == 0.75);
  CHECK(supported_quantile(99) == 0.75);
  CHECK(supported_quantile(100) == 0.9);
  CHECK(supported_quantile(199) == 0.9);
  CHECK(supported_quantile(200) == 0.95);
  CHECK(supported_quantile(999) == 0.95);
  CHECK(supported_quantile(1000) == 0.99);
  CHECK(supported_quantile(9999) == 0.99);
  CHECK(supported_quantile(10000) == 0.999);

  // Interpolated quantiles over 1..101: q maps to 1 + 100 q.
  std::vector<double> v;
  for (int i = 101; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(near(quantile(v, 0.5), 51.0));
  CHECK(near(quantile(v, 0.9), 91.0));
  CHECK(near(quantile(v, 0.0), 1.0));
  CHECK(near(quantile(v, 1.0), 101.0));
  CHECK(near(quantile({1.0, 2.0}, 0.5), 1.5));
  CHECK(quantile({}, 0.5) == 0.0);
  CHECK(near(median({3.0, 1.0, 2.0}), 2.0));

  const Tail t = summarize(v);
  CHECK(t.n == 101);
  CHECK(t.q == 0.9);
  CHECK(near(t.p50, 51.0));
  CHECK(near(t.tail, 91.0));
  const Tail empty = summarize({});
  CHECK(empty.n == 0 && empty.tail == 0.0);
}

void ladder() {
  const std::vector<double> r = geometric_ladder(1000.0, 2000.0, 1.08);
  CHECK(r.front() == 1000.0);
  CHECK(r.back() >= 2000.0);
  CHECK(r[r.size() - 2] < 2000.0);
  for (std::size_t i = 1; i < r.size(); ++i)
    CHECK(r[i] / r[i - 1] <= 1.10 + 1e-12);
  bool threw = false;
  try {
    geometric_ladder(1000.0, 2000.0, 1.2);  // steps over 10% are refused
  } catch (const std::exception&) {
    threw = true;
  }
  CHECK(threw);

  // Monotone capacity at rung 17 of 40: found, in about log2(40) probes.
  const auto cap17 = [](int i) { return i <= 17 ? Verdict::kPass : Verdict::kFail; };
  LadderResult lr = search_ladder(40, cap17);
  CHECK(lr.best == 17);
  CHECK(lr.probes <= 7);
  CHECK(lr.invalid == 0);

  CHECK(search_ladder(40, [](int) { return Verdict::kFail; }).best == -1);
  CHECK(search_ladder(40, [](int) { return Verdict::kPass; }).best == 39);
  CHECK(search_ladder(1, [](int) { return Verdict::kPass; }).best == 0);

  // An invalid rung is retried; a rung that stays invalid never passes.
  int calls_at_19 = 0;
  lr = search_ladder(40, [&](int i) {
    if (i == 19 && calls_at_19++ == 0) return Verdict::kInvalid;
    return i <= 25 ? Verdict::kPass : Verdict::kFail;
  });
  CHECK(lr.best == 25);
  CHECK(lr.invalid == 1);
  lr = search_ladder(40, [](int i) {
    return i >= 10 ? Verdict::kInvalid : Verdict::kPass;
  });
  CHECK(lr.best == 9);
  CHECK(lr.invalid > 0);
}

void chain_crc() {
  const auto crc = [](std::int64_t bit, double acc) {
    return ChainCrc().add(std::string("ResNet-20/rowpress/s1")).add(bit).add(acc).value();
  };
  CHECK(crc(3, 0.25) == crc(3, 0.25));        // deterministic
  CHECK(crc(3, 0.25) != crc(4, 0.25));        // any field changes it
  CHECK(crc(3, 0.25) != crc(3, std::nextafter(0.25, 1.0)));  // last digit
  // Field boundaries are part of the hash: "ab"+"c" differs from "a"+"bc".
  CHECK(ChainCrc().add(std::string("ab")).add(std::string("c")).value() !=
        ChainCrc().add(std::string("a")).add(std::string("bc")).value());
  // Order matters: a chain is a sequence, not a set.
  CHECK(ChainCrc().add(std::int64_t{1}).add(std::int64_t{2}).value() !=
        ChainCrc().add(std::int64_t{2}).add(std::int64_t{1}).value());
  CHECK(ChainCrc().value() == 0u);
}

}  // namespace

int main() {
  percentile_rule();
  ladder();
  chain_crc();
  if (failures > 0) {
    std::fprintf(stderr, "test_ledger: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("test_ledger: all checks passed\n");
  return 0;
}
