// Self-healing serving bench: what does the integrity guard buy, and what
// does it cost?
//
// Every scenario serves the same trained victim under the same planned
// flip chain, injected by PHYSICAL DRAM address through the victim's live
// placement (so the guard's remap action can strand the chain), and
// differs only in the --defend policy:
//
//   off             PR-6 behavior: the attack lands unopposed
//   alarm           guard detects and journals, never intervenes
//   rollback        corrupted pages restored from the golden image
//   rollback+remap  restore + re-derive the weight->DRAM placement
//   throttle        degraded admission until the image stays clean
//
// Reported per scenario: flips landed/missed, detection latency (guard
// round + wall-clock ms), served-accuracy floor during the attack window,
// bits restored / remaps / throttles, and the RECOVERED served accuracy
// over a full post-attack pass.  A separate phase measures steady-state
// guard overhead (scrub + canary cost per round) on a clean model.
//
// Modes:
//   bench_serve_defense           full scenario grid + overhead + JSON
//   bench_serve_defense --smoke   rollback scenario + overhead; asserts
//                                 recovery within 1% of the pristine
//                                 baseline; wired to `ctest -L perf`
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "attack/eval.h"
#include "attack/runner.h"
#include "data/vision_synth.h"
#include "defense/online/guard.h"
#include "dram/device.h"
#include "exp/experiment.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "serve/client.h"
#include "serve/injector.h"
#include "serve/monitor.h"
#include "serve/placement.h"
#include "serve/server.h"
#include "telemetry/telemetry.h"

using namespace rowpress;
using namespace std::chrono_literals;

namespace {

// Same compact victim as bench_serve: the guard's costs (CRC scrubbing,
// canary forwards, repair publishes) are what is being measured.
data::SplitDataset bench_data() {
  data::VisionSynthConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 60;
  cfg.test_per_class = 40;
  return data::make_vision_dataset(cfg);
}

models::ModelSpec bench_spec() {
  models::ModelSpec s;
  s.name = "ServeMLP";
  s.paper_dataset = "synthetic";
  s.dataset = models::DatasetKind::kVision10;
  s.factory = [](Rng& rng) -> std::unique_ptr<nn::Module> {
    auto net = std::make_unique<nn::Sequential>();
    net->emplace<nn::Flatten>();
    net->emplace<nn::Linear>(144, 32, rng, true, "fc1");
    net->emplace<nn::ReLU>();
    net->emplace<nn::Linear>(32, 4, rng, true, "fc2");
    return net;
  };
  s.recipe = models::TrainRecipe{.epochs = 8, .batch_size = 32, .lr = 2e-3,
                                 .weight_decay = 1e-4};
  return s;
}

defense::online::GuardConfig bench_guard_config() {
  defense::online::GuardConfig g;
  g.interval = 10ms;
  g.sentinel.page_bytes = 512;
  g.sentinel.pages_per_round = 2;
  g.canary_every = 4;
  g.canary.batch_size = 32;
  g.canary.drop_threshold = 0.05;
  g.throttle_admit_one_in = 4;
  g.unthrottle_after_clean = 8;
  return g;
}

/// Served accuracy over one exact pass of the test set, isolated from
/// whatever the server already counted (delta of the cumulative stats).
double served_pass_accuracy(serve::InferenceServer& server, int n_samples) {
  const serve::ServeStats before = server.stats();
  for (int i = 0; i < n_samples; ++i) server.submit(i);
  server.drain();
  const serve::ServeStats after = server.stats();
  const std::int64_t served = after.served - before.served;
  return served > 0 ? static_cast<double>(after.correct - before.correct) /
                          static_cast<double>(served)
                    : 0.0;
}

struct ScenarioResult {
  std::string policy;
  std::int64_t landed = 0;
  std::int64_t missed = 0;
  std::int64_t detect_round = -1;
  double detect_ms = -1.0;  ///< wall-clock attack-start -> first detection
  double floor_accuracy = 1.0;   ///< worst served window during the attack
  double attacked_accuracy = 0.0;  ///< post-attack pass, before recovery
  double recovered_accuracy = 0.0; ///< post-recovery pass
  std::int64_t rollbacks = 0;
  std::int64_t bits_restored = 0;
  std::int64_t remaps = 0;
  std::int64_t throttles = 0;
  std::int64_t degraded_shed = 0;
};

ScenarioResult run_scenario(const std::string& policy,
                            const models::ModelSpec& spec,
                            const nn::ModelState& trained,
                            const data::SplitDataset& data,
                            const std::vector<nn::WeightBitRef>& chain,
                            const dram::Geometry& geom) {
  ScenarioResult r;
  r.policy = policy;

  telemetry::MetricsRegistry metrics;
  serve::SharedModel shared(spec, trained);
  serve::ServerConfig scfg;
  scfg.threads = 2;
  scfg.batch_wait_us = 200;
  serve::InferenceServer server(shared, data.test, scfg, &metrics);
  serve::ServeMonitor monitor(server, &metrics,
                              "bench_serve_defense_trace.jsonl", 100ms);
  serve::VictimPlacement placement(geom, shared.total_weight_bytes(),
                                   /*seed=*/7);

  // The attacker converts its planned refs to physical addresses under the
  // placement current at planning time; a later remap strands them.
  const auto plan_map = placement.mapping();
  std::vector<serve::PhysicalFlip> phys;
  phys.reserve(chain.size());
  for (const auto& ref : chain)
    phys.push_back(serve::PhysicalFlip{
        plan_map->linear_bit_for(shared.image_bit_offset(ref))});

  serve::InjectorConfig icfg;
  icfg.initial_delay = 50ms;
  icfg.interval = 15ms;
  serve::FlipInjector injector(shared, std::move(phys), placement, icfg,
                               &monitor, &metrics);

  std::unique_ptr<defense::online::IntegrityGuard> guard;
  if (policy != "off") {
    guard = std::make_unique<defense::online::IntegrityGuard>(
        shared, defense::online::make_policy(policy), data.train,
        bench_guard_config(), &placement, &server, &monitor, &metrics);
  }

  serve::ClientConfig ccfg;
  ccfg.rate_rps = 3000.0;
  serve::OpenLoopClient client(server, ccfg);

  server.start();
  monitor.start();
  client.start();
  injector.start();
  if (guard) guard->start();

  // Attack window: track the worst served window (200 ms buckets) while
  // the chain lands.
  serve::ServeStats win_prev = server.stats();
  while (!injector.done()) {
    std::this_thread::sleep_for(200ms);
    const serve::ServeStats now = server.stats();
    const std::int64_t served = now.served - win_prev.served;
    if (served >= 32) {
      const double acc = static_cast<double>(now.correct - win_prev.correct) /
                         static_cast<double>(served);
      r.floor_accuracy = std::min(r.floor_accuracy, acc);
    }
    win_prev = now;
  }
  client.stop();
  injector.stop();

  r.landed = injector.landed();
  r.missed = injector.missed();

  // Damage assessment: a full served pass on the post-attack (pre-repair
  // barrier) model.  The guard keeps running here — for the repairing
  // policies this pass already rides the self-healed weights.
  r.attacked_accuracy = served_pass_accuracy(server, data.test.size());

  if (guard) {
    const defense::online::GuardStats g = guard->stats();
    r.detect_round = g.first_detection_round;
    if (g.first_detection_round >= 0) {
      // Wall-clock detection latency: guard rounds run every interval
      // starting at attack+0, flips start landing at initial_delay.
      const double round_ms =
          std::chrono::duration<double, std::milli>(
              bench_guard_config().interval).count();
      const double first_ms = g.first_detection_round * round_ms -
                              std::chrono::duration<double, std::milli>(
                                  icfg.initial_delay).count();
      r.detect_ms = std::max(0.0, first_ms);
    }
    guard->stop();
    guard->recover_now();  // repair barrier: image back to golden
    const defense::online::GuardStats g2 = guard->stats();
    r.rollbacks = g2.rollbacks;
    r.bits_restored = g2.bits_restored;
    r.remaps = g2.remaps;
    r.throttles = g2.throttles;
    server.set_admit_one_in(1);  // release any still-engaged throttle
  }

  r.recovered_accuracy = served_pass_accuracy(server, data.test.size());
  r.degraded_shed = server.stats().degraded_shed;

  server.drain();
  monitor.stop();
  server.stop();
  std::remove("bench_serve_defense_trace.jsonl");
  return r;
}

struct Overhead {
  double scrub_ms_per_round = 0.0;
  double canary_ms = 0.0;
  double scrub_overhead_pct = 0.0;  ///< % of one core at the bench cadence
};

/// Steady-state guard cost on a clean model: no detections fire, so this
/// is the pure sensing overhead a healthy service pays forever.
Overhead measure_overhead(const models::ModelSpec& spec,
                          const nn::ModelState& trained,
                          const data::SplitDataset& data) {
  telemetry::MetricsRegistry metrics;
  serve::SharedModel shared(spec, trained);
  defense::online::GuardConfig gcfg = bench_guard_config();
  gcfg.canary_every = 1 << 20;  // isolate scrub cost from canary cost
  defense::online::IntegrityGuard guard(
      shared, defense::online::make_policy("rollback"), data.train, gcfg,
      nullptr, nullptr, nullptr, &metrics);

  constexpr int kRounds = 200;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRounds; ++i) guard.run_round();
  const double scrub_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0).count() / kRounds;

  constexpr int kCanaryRuns = 20;
  const auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < kCanaryRuns; ++i) guard.canary().run();
  const double canary_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t1).count() / kCanaryRuns;

  Overhead o;
  o.scrub_ms_per_round = scrub_ms;
  o.canary_ms = canary_ms;
  const double interval_ms = std::chrono::duration<double, std::milli>(
                                 bench_guard_config().interval).count();
  o.scrub_overhead_pct = 100.0 * scrub_ms / interval_ms;
  return o;
}

void write_json(double pristine, const ScenarioResult& rollback,
                const Overhead& o) {
  std::string commit;
  std::FILE* f = bench::open_bench_json("BENCH_serve_defense.json", commit);
  if (f == nullptr) return;
  std::fprintf(
      f,
      "{\"pristine_accuracy\": %.4f, \"floor_accuracy\": %.4f, "
      "\"recovered_accuracy\": %.4f, \"detect_round\": %lld, "
      "\"detect_ms\": %.1f, \"bits_restored\": %lld, "
      "\"scrub_ms_per_round\": %.4f, \"canary_ms\": %.4f, "
      "\"scrub_overhead_pct\": %.2f, \"commit\": \"%s\"}\n",
      pristine, rollback.floor_accuracy, rollback.recovered_accuracy,
      static_cast<long long>(rollback.detect_round), rollback.detect_ms,
      static_cast<long long>(rollback.bits_restored), o.scrub_ms_per_round,
      o.canary_ms, o.scrub_overhead_pct, commit.c_str());
  std::fclose(f);
  std::printf("wrote BENCH_serve_defense.json\n");
}

void print_row(const ScenarioResult& r) {
  std::printf("%-15s %4lld %4lld %7lld %9.1f %8.4f %9.4f %10.4f %5lld "
              "%6lld %6lld\n",
              r.policy.c_str(), static_cast<long long>(r.landed),
              static_cast<long long>(r.missed),
              static_cast<long long>(r.detect_round), r.detect_ms,
              r.floor_accuracy, r.attacked_accuracy, r.recovered_accuracy,
              static_cast<long long>(r.bits_restored),
              static_cast<long long>(r.remaps),
              static_cast<long long>(r.degraded_shed));
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  const data::SplitDataset data = bench_data();
  const models::ModelSpec spec = bench_spec();
  Rng rng(11);
  auto model = spec.factory(rng);
  const auto train_stats =
      exp::train_classifier(*model, data, spec.recipe, rng);
  std::printf("victim: %s, test accuracy %.4f\n", spec.name.c_str(),
              train_stats.test_accuracy);
  const nn::ModelState trained = nn::snapshot_state(*model);

  // Pristine served baseline: the recovery target.
  double pristine;
  {
    telemetry::MetricsRegistry metrics;
    serve::SharedModel shared(spec, trained);
    serve::ServerConfig scfg;
    scfg.threads = 2;
    scfg.batch_wait_us = 200;
    serve::InferenceServer server(shared, data.test, scfg, &metrics);
    server.start();
    pristine = served_pass_accuracy(server, data.test.size());
    server.drain();
    server.stop();
  }
  std::printf("pristine served accuracy: %.4f\n", pristine);

  // One offline plan shared by every scenario.
  attack::AttackRunSetup setup;
  setup.seed = 1;
  setup.bfa.max_flips = 40;
  const attack::AttackResult plan =
      attack::run_unconstrained_attack(spec, trained, data, setup);
  std::vector<nn::WeightBitRef> chain;
  for (const auto& f : plan.flips) chain.push_back(f.ref);
  std::printf("attack plan: %zu flips (offline %.4f -> %.4f)\n\n",
              chain.size(), plan.accuracy_before, plan.accuracy_after);

  const dram::Device device(exp::default_chip_config());
  const dram::Geometry& geom = device.geometry();

  const Overhead o = measure_overhead(spec, trained, data);
  std::printf("steady-state guard overhead: scrub %.3f ms/round "
              "(%.1f%% of one core at %lld ms cadence), canary %.3f ms "
              "per run\n\n",
              o.scrub_ms_per_round, o.scrub_overhead_pct,
              static_cast<long long>(bench_guard_config().interval.count()),
              o.canary_ms);

  std::printf("%-15s %4s %4s %7s %9s %8s %9s %10s %5s %6s %6s\n", "policy",
              "land", "miss", "det_rnd", "det_ms", "floor", "attacked",
              "recovered", "bits", "remaps", "dshed");

  if (smoke) {
    const ScenarioResult r =
        run_scenario("rollback", spec, trained, data, chain, geom);
    print_row(r);
    write_json(pristine, r, o);
    if (r.detect_round < 0) {
      std::fprintf(stderr, "FAIL: guard never detected the attack\n");
      return 1;
    }
    if (std::abs(r.recovered_accuracy - pristine) > 0.01) {
      std::fprintf(stderr,
                   "FAIL: recovered served accuracy %.4f not within 1%% of "
                   "pristine %.4f\n",
                   r.recovered_accuracy, pristine);
      return 1;
    }
    std::printf("\nsmoke: rollback recovered %.4f vs pristine %.4f "
                "(|delta| <= 0.01), detection at round %lld\n",
                r.recovered_accuracy, pristine,
                static_cast<long long>(r.detect_round));
    return 0;
  }

  std::optional<ScenarioResult> rollback_result;
  for (const std::string policy :
       {"off", "alarm", "rollback", "rollback+remap", "throttle"}) {
    const ScenarioResult r =
        run_scenario(policy, spec, trained, data, chain, geom);
    print_row(r);
    if (policy == "rollback") rollback_result = r;
  }
  std::printf("\n(recovered = post-attack pass after the explicit "
              "recover_now() barrier — any guarded policy can repair there "
              "because golden state exists; 'floor' and 'attacked' show "
              "what the policy did LIVE.  off has no guard and stays "
              "corrupted.)\n");
  if (rollback_result) write_json(pristine, *rollback_result, o);
  return 0;
}
