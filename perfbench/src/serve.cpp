// serve-resnet20: the zoo ResNet-20 served on the int8 path by
// serve::InferenceServer (2 serving threads, batches of up to 16) over a
// serve::SharedModel, with a defense/online IntegrityGuard on the rollback
// policy.  One generator thread drives three phases:
//
//   clean     every request once, blocking; served accuracy must equal
//             attack::subset_accuracy on an offline int8 replica, bit for bit;
//   rungs     open loop: requests are scheduled by due time at a fixed rate
//             per rung; rungs at a fixed rate near half the SLO rate give
//             the latencies; in the traced run only, a binary search finds
//             the highest rung meeting the latency limit with nothing shed
//             and no backlog (serve_slo_rps);
//   attack    closed loop at saturation (blocking submits keep the queue
//             full) while the generator lands a planned RowPress flip chain
//             through SharedModel::apply_bit_flip and the guard scrubs and
//             rolls back; the guard's recovery must restore the golden image.
//
// The untraced run alternates one fixed-rate rung and one attack phase
// until the window closes; the traced run makes seven fixed-rate rungs,
// the ladder and then the attack phases.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/eval.h"
#include "attack/runner.h"
#include "common.h"
#include "defense/online/guard.h"
#include "ledger.h"
#include "search/runner.h"
#include "serve/server.h"
#include "serve/shared_model.h"
#include "telemetry/registry.h"

namespace perfbench {

using namespace rowpress;
using Clock = std::chrono::steady_clock;

namespace {

// setup_s is the median over kFirstSetups setups before the first request
// plus, in the untraced run, one more before every rung + attack
// iteration after the first: the host's speed shifts by up to 1.6x over
// seconds, so setups spread over the run are steadier than a burst.
constexpr int kFirstSetups = 3;
constexpr int kCleanRequests = 512;
constexpr double kLatencyLimitMs = 25.0;  ///< ladder p99 limit
// Rate ladder, req/s.  Over 53 runs on the 4-core host the benchmark was
// sized on, serve_slo_rps ranged 1000-12250 req/s (median 6840-7250; the
// issue's saturation figure is 11.2-12.3k req/s), so the top rung leaves
// room for a 3x faster server.
constexpr double kLadderLo = 1000.0, kLadderHi = 40000.0, kLadderStep = 1.06;
// The fixed rung: kLadderLo * 1.06^21 = 3400 req/s, the rung nearest half
// of that median SLO rate.
constexpr int kFixedRung = 21;
constexpr double kRungSeconds = 0.4;
constexpr double kFixedRungSeconds = 0.6;
constexpr int kFixedRungs = 7;  ///< traced run: latencies are medians over these rungs
constexpr int kFixedRungTries = 3;  ///< invalid fixed rungs re-run before the run fails
constexpr double kMaxLateMs = 1.0;  ///< median generator lateness beyond which a rung is invalid
constexpr std::size_t kBacklogAbort = 512;  ///< queue depth: rung has failed
constexpr std::size_t kBacklogEnd = 64;     ///< depth allowed at rung end
constexpr int kAttackRequests = 30000;
const char* const kModel = "ResNet-20";

serve::ServerConfig server_config() {
  serve::ServerConfig c;
  c.threads = 2;
  c.max_batch = 16;
  c.queue_capacity = 4096;
  c.slo_ms = kLatencyLimitMs;
  c.int8 = true;
  return c;
}

defense::online::GuardConfig guard_config() {
  defense::online::GuardConfig g;
  g.interval = std::chrono::milliseconds(5);
  g.sentinel.pages_per_round = 16;
  g.canary.int8 = true;
  return g;
}

std::string chain_path(const Args& args) {
  return args.cache_dir + "/serve_chain_resnet20.txt";
}

/// Plans the RowPress chain offline (int8 greedy BFA, seed 1) into the
/// private cache.
void warm_chain(const Args& args) {
  const std::string path = chain_path(args);
  if (std::filesystem::exists(path)) return;
  const double t0 = now_s();
  const models::ModelSpec& spec = zoo_model(kModel);
  const data::SplitDataset data = models::make_dataset(spec.dataset);
  const exp::PreparedModel m =
      exp::prepare_trained_model(spec, data, args.cache_dir, 1);
  dram::Device device(exp::default_chip_config());
  const exp::ProfilePair prof = exp::build_or_load_profiles(device, args.cache_dir);
  search::SearchRunSetup setup;
  setup.base.seed = 1;
  setup.base.bfa.int8_eval = true;
  setup.base.bfa.max_flips = 48;
  const attack::AttackResult plan = search::run_profile_attack(
      spec, m.state, data, prof.rowpress, device.geometry(), setup);
  {
    std::ofstream out(path + ".tmp");
    for (const auto& f : plan.flips)
      out << f.ref.param_index << ' ' << f.ref.weight_index << ' ' << f.ref.bit << '\n';
  }
  std::filesystem::rename(path + ".tmp", path);
  std::fprintf(stderr, "perfbench: cold plan of the served chain: %.1f s (%d flips)\n",
               now_s() - t0, plan.num_flips());
}

std::vector<nn::WeightBitRef> load_chain(const Args& args) {
  std::ifstream in(chain_path(args));
  std::vector<nn::WeightBitRef> chain;
  nn::WeightBitRef ref;
  while (in >> ref.param_index >> ref.weight_index >> ref.bit) chain.push_back(ref);
  gate(!chain.empty(), "planned flip chain missing from the warm cache");
  return chain;
}

/// The serving stack, built in setup.  Members are destroyed in reverse
/// order: guard, server, model.
struct Stack {
  data::SplitDataset data;
  nn::ModelState state;
  std::vector<nn::WeightBitRef> chain;
  telemetry::MetricsRegistry metrics;
  std::unique_ptr<serve::SharedModel> model;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<defense::online::IntegrityGuard> guard;
  ~Stack() {
    if (guard) guard->stop();
    if (server) server->stop();
  }
};

struct SetupTimes {
  double total_s = 0.0, synth_ms = 0.0, load_ms = 0.0, construct_ms = 0.0;
};

std::unique_ptr<Stack> set_up(const Args& args, SetupTimes* t) {
  const double t0 = now_s();
  auto s = std::make_unique<Stack>();
  const models::ModelSpec& spec = zoo_model(kModel);
  s->data = synth(spec.dataset, &t->synth_ms);
  s->state = load_model(args, spec, s->data, &t->load_ms).state;
  s->chain = load_chain(args);
  const double c0 = now_s();
  s->model = std::make_unique<serve::SharedModel>(spec, s->state);
  s->server = std::make_unique<serve::InferenceServer>(
      *s->model, s->data.test, server_config(), &s->metrics);
  s->server->start();
  s->guard = std::make_unique<defense::online::IntegrityGuard>(
      *s->model, defense::online::make_policy("rollback"), s->data.train,
      guard_config(), nullptr, s->server.get(), nullptr, &s->metrics);
  t->construct_ms = (now_s() - c0) * 1e3;
  t->total_s = now_s() - t0;
  return s;
}

const telemetry::HistogramSnapshot& hist(const telemetry::Snapshot& s,
                                         const std::string& name) {
  for (const auto& h : s.histograms)
    if (h.name == name) return h;
  throw GateFailure("histogram " + name + " missing from the server registry");
}

/// Request stream: a seed-shuffled permutation of the test set, cycled.
struct Stream {
  std::vector<int> idx;
  std::size_t next = 0;
  int operator()() {
    const int i = idx[next];
    next = (next + 1) % idx.size();
    return i;
  }
};

/// One open-loop rung.
struct Rung {
  Verdict verdict = Verdict::kFail;
  std::int64_t offered = 0, shed = 0, slo_violations = 0;
  std::vector<double> late_ms;
  /// serve.latency_ms, serve.forward_ms and serve.batch_size over the rung.
  telemetry::Snapshot hists;
};
constexpr const char* kRungHistograms[] = {"serve.latency_ms", "serve.forward_ms",
                                           "serve.batch_size"};

Rung run_rung(Stack& s, Stream& stream, double rate, double seconds, Result& r) {
  Rung g;
  const telemetry::Snapshot before = s.metrics.snapshot();
  const auto period = std::chrono::duration<double>(1.0 / rate);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto end = start + std::chrono::duration<double>(seconds);
  bool aborted = false;
  for (std::int64_t i = 0;; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(period * i);
    if (due >= end) break;
    // Sleep to just short of the due time, then spin: timer slack alone
    // would make every request tens of microseconds late.
    std::this_thread::sleep_until(due - std::chrono::microseconds(200));
    while (Clock::now() < due) {
    }
    g.late_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    ++g.offered;
    if (!s.server->try_submit(stream())) ++g.shed;
    if (s.server->queue_depth() > kBacklogAbort) {
      aborted = true;  // backlog is growing: stop before anything sheds
      break;
    }
  }
  const std::size_t depth_end = s.server->queue_depth();
  s.server->drain();
  const telemetry::Snapshot after = s.metrics.snapshot();
  for (const char* name : kRungHistograms)
    g.hists.histograms.push_back(
        telemetry::histogram_delta(hist(after, name), hist(before, name)));
  // A shed request misses the latency limit too.
  g.slo_violations = after.counter_or("serve.slo_violations") -
                     before.counter_or("serve.slo_violations") + g.shed;
  r.attempted += g.offered;
  r.failed += g.shed;

  // The server times a request from enqueue; adding the generator's own
  // p99 lateness bounds the latency counted from the due time.  A host
  // stall delays both and is part of the measurement; a generator that is
  // behind schedule most of the time is not an open loop at all.
  const double late_p50 = quantile(g.late_ms, 0.5);
  const double late_p99 = quantile(g.late_ms, 0.99);
  const double p99 = hist(g.hists, "serve.latency_ms").quantile(0.99);
  if (aborted || g.shed > 0 || depth_end > kBacklogEnd ||
      p99 + late_p99 > kLatencyLimitMs)
    g.verdict = Verdict::kFail;
  else if (late_p50 > kMaxLateMs)
    g.verdict = Verdict::kInvalid;
  else
    g.verdict = Verdict::kPass;
  char line[160];
  std::snprintf(line, sizeof line,
                "rung %.0f req/s: %s (p99 %.2f ms, generator late p50 %.2f "
                "p99 %.2f ms, depth at end %zu%s)",
                rate, g.verdict == Verdict::kPass ? "pass"
                      : g.verdict == Verdict::kFail ? "fail" : "invalid",
                p99, late_p50, late_p99, depth_end, aborted ? ", backlog abort" : "");
  r.note(line);
  return g;
}

/// Two rungs at the same rate as one.
Rung merge(Rung a, const Rung& b) {
  a.offered += b.offered;
  a.shed += b.shed;
  a.slo_violations += b.slo_violations;
  a.late_ms.insert(a.late_ms.end(), b.late_ms.begin(), b.late_ms.end());
  a.hists = telemetry::merge_snapshots({a.hists, b.hists});
  return a;
}

/// Rungs at the fixed rate: the latency quantiles of each valid rung, and
/// all valid rungs merged.  On a shared host one rung's latency swings with
/// scheduler stalls; the median over several rungs much less.
struct FixedRungs {
  double rps = 0.0;
  std::vector<double> p50s, p99s;
  Rung merged;

  /// Runs one valid rung; an invalid one is re-run.
  void run_one(Stack& s, Stream& stream, Result& r) {
    for (int attempt = 0;; ++attempt) {
      gate(attempt < kFixedRungTries,
           "the generator fell behind its schedule on the fixed rung");
      const Rung g = run_rung(s, stream, rps, kFixedRungSeconds, r);
      if (g.verdict == Verdict::kInvalid) continue;
      const telemetry::HistogramSnapshot& latency = hist(g.hists, "serve.latency_ms");
      p50s.push_back(latency.quantile(0.5));
      p99s.push_back(latency.quantile(0.99));
      merged = p50s.size() == 1 ? g : merge(merged, g);
      return;
    }
  }
};

/// Closed loop at saturation while the chain lands; returns wall seconds.
struct AttackRun {
  double wall_s = 0.0;
  std::vector<double> publish_us;
  std::int64_t bits_restored = 0;
  double scrub_ms = 0.0, canary_ms = 0.0;
};

AttackRun run_attack(Stack& s, Stream& stream, Result& r,
                     telemetry::TraceCollector* trace) {
  AttackRun a;
  const telemetry::Snapshot before = s.metrics.snapshot();
  const std::size_t n_flips = s.chain.size();
  const int every = kAttackRequests / static_cast<int>(n_flips + 1);
  telemetry::Span phase(trace, "bench.attack_phase", "bench");
  s.guard->start();
  const double t0 = now_s();
  std::size_t landed = 0;
  for (int i = 0; i < kAttackRequests; ++i) {
    ++r.attempted;
    if (!s.server->submit(stream())) ++r.failed;
    if ((i + 1) % every == 0 && landed < n_flips) {
      telemetry::Span span(trace, "bench.apply_bit_flip", "bench");
      const double f0 = now_s();
      (void)s.model->apply_bit_flip(s.chain[landed++]);
      a.publish_us.push_back((now_s() - f0) * 1e6);
    }
  }
  s.server->drain();
  a.wall_s = now_s() - t0;
  s.guard->stop();
  phase.finish();
  gate(landed == n_flips, "not every planned flip landed");

  (void)s.guard->recover_now();
  const std::vector<std::uint8_t> image =
      s.model->read_image_range(0, s.model->total_weight_bytes());
  gate(image == s.guard->sentinel().golden(),
       "the guard's recovery did not restore the golden weight image");
  const telemetry::Snapshot after = s.metrics.snapshot();
  // The guard's scrub_ms / canary_ms histograms receive nanoseconds
  // (telemetry::ScopedTimer records ns); their means are exact either way.
  a.scrub_ms = telemetry::histogram_delta(hist(after, "defense.online.scrub_ms"),
                                          hist(before, "defense.online.scrub_ms"))
                   .mean() * 1e-6;
  a.canary_ms = telemetry::histogram_delta(hist(after, "defense.online.canary_ms"),
                                           hist(before, "defense.online.canary_ms"))
                    .mean() * 1e-6;
  a.bits_restored = after.counter_or("defense.online.bits_restored") -
                     before.counter_or("defense.online.bits_restored");
  return a;
}

}  // namespace

void warm_serve(const Args& args) {
  warm_zoo(args, {kModel});
  warm_profiles(args, exp::default_chip_config());
  warm_chain(args);
}

void run_serve(const Args& args, Result& r) {
  std::vector<SetupTimes> times;
  std::unique_ptr<Stack> s;
  const auto set_up_again = [&] {
    s.reset();
    s = set_up(args, &times.emplace_back());
  };
  for (int i = 0; i < kFirstSetups; ++i) set_up_again();
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    return median(v);
  };

  const double start = now_s();  // the measured window opens after the first setups
  Stream stream;
  for (int i = 0; i < s->data.test.size(); ++i) stream.idx.push_back(i);
  Rng(args.seed).shuffle(stream.idx);

  // Clean phase: served accuracy == offline int8 subset accuracy, exactly.
  {
    const std::vector<int> idx(stream.idx.begin(),
                               stream.idx.begin() + std::min<int>(kCleanRequests, s->data.test.size()));
    for (const int i : idx) {
      ++r.attempted;
      if (!s->server->submit(i)) ++r.failed;
    }
    s->server->drain();
    const double served = s->server->stats().accuracy();
    Rng rng(1);
    attack::QuantizedReplica offline =
        attack::make_quantized_replica(zoo_model(kModel), s->state, rng);
    offline.qmodel->set_int8_execution(true);
    offline.model->set_training(false);
    const double expected = attack::subset_accuracy(*offline.model, s->data.test, idx);
    gate(served == expected, "clean served accuracy " + std::to_string(served) +
                                 " != offline int8 subset accuracy " +
                                 std::to_string(expected));
  }

  const std::vector<double> rates = geometric_ladder(kLadderLo, kLadderHi, kLadderStep);
  FixedRungs fixed;
  fixed.rps = rates.at(kFixedRung);

  if (!args.trace) {
    // A fixed rung and an attack phase alternate until the window closes,
    // and each metric reports the fastest iteration: interference from a
    // shared host only adds time and comes and goes within a run (one
    // run's rung p50 went 6.2, 3.7, 4.4, 4.0, 3.7, 2.7 ms), so the fastest
    // of about six iterations is far steadier across runs than their
    // median.  Every iteration after the first starts from a stack set up
    // again.
    std::vector<double> work_s;
    double last = 0.0;
    do {
      const double t0 = now_s();
      if (!work_s.empty()) set_up_again();
      fixed.run_one(*s, stream, r);
      work_s.push_back(run_attack(*s, stream, r, nullptr).wall_s);
      last = now_s() - t0;
      r.note("serve iteration: rung p50 " + std::to_string(fixed.p50s.back()) +
             " ms, attack phase " + std::to_string(work_s.back()) + " s");
    } while (now_s() - start + last <= args.seconds);
    r.set("setup_s", setup_median(&SetupTimes::total_s), "s");
    r.set("work_s", *std::min_element(work_s.begin(), work_s.end()), "s");
    r.set("op_ms", *std::min_element(fixed.p50s.begin(), fixed.p50s.end()), "ms");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  for (int i = 0; i < kFixedRungs; ++i) fixed.run_one(*s, stream, r);

  r.set("data.synth_ms.vision10", setup_median(&SetupTimes::synth_ms), "ms");
  r.set("exp.model_load_ms.resnet20", setup_median(&SetupTimes::load_ms), "ms");
  r.set("serve.construct_ms", setup_median(&SetupTimes::construct_ms), "ms");

  // Ladder, traced run only (untraced runs report no rate): the highest
  // rung meeting the limit.
  const LadderResult ladder = search_ladder(
      static_cast<int>(rates.size()),
      [&](int i) { return run_rung(*s, stream, rates[i], kRungSeconds, r).verdict; });
  // 0 when not even the lowest rung met the limit: there is no SLO rate.
  const double slo_rps = ladder.best >= 0 ? rates[ladder.best] : 0.0;

  const AttackRun plain = run_attack(*s, stream, r, nullptr);
  telemetry::TraceCollector trace;
  const AttackRun traced = run_attack(*s, stream, r, &trace);
  r.set("telemetry.trace_overhead_pct", 100.0 * (traced.wall_s / plain.wall_s - 1.0), "pct");
  write_trace(args, trace.events());

  r.set("serve_slo_rps", slo_rps, "1/s");
  r.set("serve_p99_ms", median(fixed.p99s), "ms");
  r.set("serve.latency_ms.p50", median(fixed.p50s), "ms");
  r.set("serve_attack_rps", kAttackRequests / plain.wall_s, "1/s");
  r.set("serve.ladder_probes", ladder.probes, "count");
  r.set("serve.ladder_invalid", ladder.invalid, "count");
  const Rung& merged = fixed.merged;
  const telemetry::HistogramSnapshot& forward = hist(merged.hists, "serve.forward_ms");
  r.set("serve.forward_ms.p50", forward.quantile(0.5), "ms");
  r.set("serve.forward_ms.tail", forward.quantile(supported_quantile(forward.count)), "ms");
  r.set("serve.forward_ms.n", static_cast<double>(forward.count), "count");
  r.set("serve.batch_size.mean", hist(merged.hists, "serve.batch_size").mean(), "count");
  r.set("serve.queue_ms.p50",
        hist(merged.hists, "serve.latency_ms").quantile(0.5) - forward.quantile(0.5), "ms");
  r.set("serve.shed", static_cast<double>(merged.shed), "count");
  r.set("serve.slo_violations", static_cast<double>(merged.slo_violations), "count");
  set_tail(r, "serve.generator_late_ms", merged.late_ms);
  const Tail pub = summarize(plain.publish_us);
  r.set("serve.publish_us.p50", pub.p50, "us");
  r.set("serve.publish_us.tail", pub.tail, "us");
  r.set("serve.publish_us.n", static_cast<double>(pub.n), "count");
  r.set("defense.scrub_ms_per_round", plain.scrub_ms, "ms");
  r.set("defense.canary_ms", plain.canary_ms, "ms");
  r.set("defense.bits_restored", static_cast<double>(plain.bits_restored), "count");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
