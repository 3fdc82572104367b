// Serving-under-attack bench: "accuracy and p99 under attack" curves.
//
// Phase 1 (baseline, also `--smoke`): saturate the batching server with
// the full test set (no attack), require the served accuracy to be
// BIT-IDENTICAL to the offline evaluator on the same indices, and measure
// no-attack throughput and latency quantiles.  Writes BENCH_serve.json —
// the committed copy at the repo root is the tracked baseline.
//
// Phase 2 (full run only): plan a bit-flip chain offline, then serve
// open-loop traffic while the injector lands one flip per interval; the
// monitor journals the JSONL time series (bench_serve_trace.jsonl) and the
// tick records are echoed as the accuracy/p99-vs-time curve with flip
// landmarks — the serving-layer counterpart of the paper's accuracy-vs-
// flips curves.
//
// Modes:
//   bench_serve           both phases + JSON artifact + trace
//   bench_serve --smoke   phase 1 only; wired to `ctest -L perf`
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "attack/eval.h"
#include "attack/runner.h"
#include "data/vision_synth.h"
#include "exp/experiment.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "runtime/jsonl.h"
#include "serve/client.h"
#include "serve/injector.h"
#include "serve/monitor.h"
#include "serve/server.h"
#include "serve/trace_reader.h"
#include "telemetry/telemetry.h"

using namespace rowpress;
using namespace std::chrono_literals;

namespace {

// A compact victim so the bench trains in-process in well under a second;
// the serving layer's costs (batching, pinning, telemetry) are what is
// being measured, not the model's FLOPs.
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

void write_json(double baseline_rps, double baseline_p99_ms,
                double served_accuracy) {
  std::string commit;
  std::FILE* f = bench::open_bench_json("BENCH_serve.json", commit);
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"baseline_rps\": %.1f, \"baseline_p99_ms\": %.3f, "
               "\"served_accuracy\": %.4f, \"commit\": \"%s\"}\n",
               baseline_rps, baseline_p99_ms, served_accuracy,
               commit.c_str());
  std::fclose(f);
  std::printf("wrote BENCH_serve.json\n");
}

struct Baseline {
  double rps = 0.0;
  double p99_ms = 0.0;
  double accuracy = 0.0;
  bool bit_identical = false;
};

Baseline run_baseline(const models::ModelSpec& spec,
                      const nn::ModelState& trained,
                      const data::SplitDataset& data) {
  telemetry::MetricsRegistry metrics;
  serve::SharedModel shared(spec, trained);
  serve::ServerConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 16;
  cfg.batch_wait_us = 200;
  serve::InferenceServer server(shared, data.test, cfg, &metrics);
  server.start();

  // Several full passes over the test set: enough volume for stable
  // throughput and quantiles, and each pass exercises every sample.
  constexpr int kPasses = 20;
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < kPasses; ++p)
    for (int i = 0; i < data.test.size(); ++i) server.submit(i);
  server.drain();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  server.stop();

  const serve::ServeStats stats = server.stats();
  Baseline b;
  b.rps = static_cast<double>(stats.served) / secs;
  const auto snap = metrics.snapshot();
  if (const auto* lat = snap.histogram("serve.latency_ms"))
    b.p99_ms = lat->quantile(0.99);
  b.accuracy = stats.accuracy();

  // The acceptance gate: served accuracy must be bit-identical to the
  // offline evaluator over the same sample set (same weights, same
  // indices — batching must not matter).
  Rng rng(1);
  auto offline = attack::make_quantized_replica(spec, trained, rng);
  offline.model->set_training(false);
  std::vector<int> idx(static_cast<std::size_t>(data.test.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  const double offline_acc =
      attack::subset_accuracy(*offline.model, data.test, idx);
  b.bit_identical = b.accuracy == offline_acc;

  std::printf(
      "baseline (no attack): %.0f req/s, p99 %.3f ms, served accuracy "
      "%.4f (offline %.4f, bit-identical: %s)\n",
      b.rps, b.p99_ms, b.accuracy, offline_acc,
      b.bit_identical ? "yes" : "NO");
  return b;
}

int run_attack_phase(const models::ModelSpec& spec,
                     const nn::ModelState& trained,
                     const data::SplitDataset& data) {
  // Offline plan on a private replica (the deployment split: the attacker
  // profiles weights, not traffic).
  attack::AttackRunSetup setup;
  setup.seed = 1;
  setup.bfa.max_flips = 40;
  const attack::AttackResult plan =
      attack::run_unconstrained_attack(spec, trained, data, setup);
  std::vector<nn::WeightBitRef> chain;
  for (const auto& f : plan.flips) chain.push_back(f.ref);
  std::printf(
      "\nattack plan: %zu flips (offline accuracy %.4f -> %.4f)\n",
      chain.size(), plan.accuracy_before, plan.accuracy_after);

  const std::string trace_path = "bench_serve_trace.jsonl";
  telemetry::MetricsRegistry metrics;
  serve::SharedModel shared(spec, trained);
  serve::ServerConfig cfg;
  cfg.threads = 2;
  cfg.slo_ms = 5.0;
  serve::InferenceServer server(shared, data.test, cfg, &metrics);
  serve::ServeMonitor monitor(server, &metrics, trace_path, 200ms);
  serve::ClientConfig ccfg;
  ccfg.rate_rps = 2000.0;
  serve::OpenLoopClient client(server, ccfg);
  serve::InjectorConfig icfg;
  icfg.initial_delay = 1000ms;  // clean warm-up segment
  icfg.interval = 50ms;
  serve::FlipInjector injector(shared, chain, icfg, &monitor, &metrics);

  server.start();
  monitor.start();
  client.start();
  injector.start();
  injector.wait_done();
  std::this_thread::sleep_for(500ms);  // post-attack tail
  client.stop();
  injector.stop();
  server.drain();
  monitor.stop();
  server.stop();

  // Echo the journaled time series as the curve (read back through the
  // torn-tail-tolerant reader — same path an interrupted run's trace
  // takes).
  std::printf(
      "\naccuracy and p99 under attack (from %s):\n"
      "%10s %8s %12s %10s %10s %8s\n",
      trace_path.c_str(), "t_ms", "version", "win_served", "win_acc",
      "p99_ms", "slo_top");
  serve::TraceReadStats tstats;
  for (const auto& rec : serve::read_trace(trace_path, &tstats)) {
    const std::string& line = rec.line;
    if (rec.kind == "flip") {
      std::printf("%10.0f  -- flip #%lld -> version %lld (%s, served so "
                  "far: %lld, accuracy %.4f)\n",
                  runtime::json_get_double(line, "t_ms").value_or(0.0),
                  static_cast<long long>(
                      runtime::json_get_int(line, "flip").value_or(0)),
                  static_cast<long long>(
                      runtime::json_get_int(line, "version").value_or(0)),
                  runtime::json_get_string(line, "param").value_or("?").c_str(),
                  static_cast<long long>(
                      runtime::json_get_int(line, "served_before")
                          .value_or(0)),
                  runtime::json_get_double(line, "accuracy_before")
                      .value_or(0.0));
      continue;
    }
    if (rec.kind != "tick") continue;
    std::printf(
        "%10.0f %8lld %12lld %10.4f %10.3f %8lld\n",
        runtime::json_get_double(line, "t_ms").value_or(0.0),
        static_cast<long long>(
            runtime::json_get_int(line, "version").value_or(0)),
        static_cast<long long>(
            runtime::json_get_int(line, "window_served").value_or(0)),
        runtime::json_get_double(line, "window_accuracy").value_or(0.0),
        runtime::json_get_double(line, "window_p99_ms").value_or(0.0),
        static_cast<long long>(
            runtime::json_get_int(line, "slo_violations").value_or(0)));
  }
  if (tstats.dropped_lines > 0 || tstats.torn_bytes > 0)
    std::printf("(trace recovery: %zu dropped lines, %zu torn bytes)\n",
                tstats.dropped_lines, tstats.torn_bytes);

  const serve::ServeStats stats = server.stats();
  std::printf(
      "\nattack run: served %lld (shed %lld), %lld flips landed, final "
      "served accuracy %.4f\n",
      static_cast<long long>(stats.served),
      static_cast<long long>(stats.shed),
      static_cast<long long>(injector.landed()), stats.accuracy());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  const data::SplitDataset data = bench_data();
  const models::ModelSpec spec = bench_spec();
  Rng rng(11);
  auto model = spec.factory(rng);
  const auto train_stats = exp::train_classifier(*model, data, spec.recipe,
                                                 rng);
  std::printf("victim: %s, test accuracy %.4f\n", spec.name.c_str(),
              train_stats.test_accuracy);
  const nn::ModelState trained = nn::snapshot_state(*model);

  const Baseline b = run_baseline(spec, trained, data);
  if (!b.bit_identical) {
    std::fprintf(stderr,
                 "FAIL: served accuracy diverges from the offline "
                 "evaluator\n");
    return 1;
  }
  write_json(b.rps, b.p99_ms, b.accuracy);
  if (smoke) {
    std::printf("smoke: baseline OK\n");
    return 0;
  }
  return run_attack_phase(spec, trained, data);
}
