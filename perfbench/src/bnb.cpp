// bnb-mini: branch-and-bound chain search (search::run_profile_attack /
// run_unconstrained_attack with SearchKind::kBranchAndBound) on the five
// mini Table-I proxy configs that bench/bench_search.cpp commits, with a
// fixed node budget and 2 expansion threads.  The first pass of a run also
// runs each config's greedy probe on its own, so the gate "no B&B chain is
// longer than its greedy probe" is checked and the probe's cost can be
// split off; later passes run B&B only.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "data/vision_synth.h"
#include "ledger.h"
#include "models/resnet.h"
#include "nn/serialize.h"
#include "search/runner.h"
#include "telemetry/registry.h"

namespace perfbench {

using namespace rowpress;

namespace {

// One setup takes about 10 ms, and the host's speed shifts by up to 1.6x
// over seconds, so a burst of setups samples one host state.  setup_s is
// the median over kFirstSetups setups before the first search plus one
// before every config's searches, spread over the whole run.
constexpr int kFirstSetups = 3;

struct Config {
  const char* model;
  const char* profile;  // "rowpress" | "rowhammer" | "unconstrained"
  std::uint64_t seed;
};

// bench/bench_search.cpp's committed smoke grid.
const std::vector<Config> kConfigs = {
    {"ResNet-20-mini", "rowpress", 1},
    {"ResNet-20-mini", "rowpress", 3},
    {"ResNet-20-mini", "unconstrained", 2},
    {"ResNet-32-mini", "rowpress", 7},
    {"ResNet-32-mini", "rowhammer", 5},
};
const std::vector<std::string> kMinis = {"ResNet-20-mini", "ResNet-32-mini"};

data::SplitDataset mini_data() {
  data::VisionSynthConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 50;
  cfg.test_per_class = 25;
  return data::make_vision_dataset(cfg);
}

models::ModelSpec mini_spec(const std::string& name) {
  models::ModelSpec s;
  s.name = name;
  s.paper_dataset = "synthetic";
  s.dataset = models::DatasetKind::kVision10;
  const int depth = name == "ResNet-20-mini" ? 20 : 32;
  s.factory = [depth](Rng& rng) {
    return models::make_resnet_cifar(depth, 1, 4, 4, rng);
  };
  s.recipe = models::TrainRecipe{.epochs = 6, .batch_size = 32, .lr = 2e-3,
                                 .weight_decay = 1e-4};
  return s;
}

dram::DeviceConfig mini_chip() {
  dram::DeviceConfig c;
  c.geometry.num_banks = 2;
  c.geometry.rows_per_bank = 64;
  c.geometry.row_bytes = 256;
  c.seed = 5;
  return c;
}

std::string mini_path(const Args& args, const std::string& name) {
  return args.cache_dir + "/" + name + "_bench_search.rpms";
}

/// Trains the proxies exactly as bench_search does (Rng(3), 6 epochs) into
/// the private cache.
void warm_minis(const Args& args) {
  const data::SplitDataset data = mini_data();
  for (const std::string& name : kMinis) {
    const std::string path = mini_path(args, name);
    if (std::filesystem::exists(path)) continue;
    const double t0 = now_s();
    const models::ModelSpec spec = mini_spec(name);
    Rng rng(3);
    auto model = spec.factory(rng);
    (void)exp::train_classifier(*model, data, spec.recipe, rng);
    nn::save_state(nn::snapshot_state(*model), path + ".tmp");
    std::filesystem::rename(path + ".tmp", path);
    std::fprintf(stderr, "perfbench: cold train %s: %.1f s\n", name.c_str(),
                 now_s() - t0);
  }
}

struct Inputs {
  data::SplitDataset data;
  std::map<std::string, nn::ModelState> states;
  std::unique_ptr<dram::Device> device;
  exp::ProfilePair profiles;
};

struct SetupTimes {
  double total_s = 0.0, synth_ms = 0.0, profile_ms = 0.0;
  std::map<std::string, double> load_ms;
};

Inputs set_up(const Args& args, SetupTimes* t) {
  const double t0 = now_s();
  Inputs in;
  double s0 = now_s();
  in.data = mini_data();
  t->synth_ms = (now_s() - s0) * 1e3;
  for (const std::string& name : kMinis) {
    s0 = now_s();
    gate(nn::load_state(in.states[name], mini_path(args, name)),
         name + " missing from the warm cache");
    t->load_ms[model_key(name)] = (now_s() - s0) * 1e3;
  }
  in.device = std::make_unique<dram::Device>(mini_chip());
  in.profiles = load_profiles(args, *in.device, &t->profile_ms);
  t->total_s = now_s() - t0;
  return in;
}

std::uint32_t chain_digest(const attack::AttackResult& res) {
  ChainCrc crc;
  crc.add(static_cast<std::int64_t>(res.objective_reached))
      .add(res.accuracy_before)
      .add(res.accuracy_after);
  for (const auto& f : res.flips)
    crc.add(static_cast<std::int64_t>(f.ref.param_index))
        .add(f.ref.weight_index)
        .add(static_cast<std::int64_t>(f.ref.bit))
        .add(f.accuracy_after);
  return crc.value();
}

struct Unit {
  double bnb_s = 0.0, greedy_s = 0.0;
  std::int64_t nodes = 0, pruned = 0, cache_hits = 0, rounds = 0;
  std::int64_t fp_bnb = 0, fp_greedy = 0;
  int bnb_flips = 0;
  std::map<std::string, std::uint32_t> bnb_digests, greedy_digests;
  std::map<std::string, std::uint32_t> digests() const {
    auto d = bnb_digests;
    d.insert(greedy_digests.begin(), greedy_digests.end());
    return d;
  }
};

/// One pass over the configs, with each config's greedy probe run alone
/// too when `greedy` is set; `trace` (may be null) also binds the
/// library's telemetry.  `before_config` (may be empty) runs before each
/// config's searches, outside their timing.
Unit run_unit(const Args& args, const Inputs& in, Result& r, bool greedy,
              telemetry::TraceCollector* trace,
              const std::function<void()>& before_config = {}) {
  std::vector<Config> order = kConfigs;
  Rng(args.seed).shuffle(order);
  Unit u;
  for (const Config& cfg : order) {
    if (before_config) before_config();
    const models::ModelSpec spec = mini_spec(cfg.model);
    const std::string p = cfg.profile;
    const profile::BitFlipProfile* prof =
        p == "rowpress" ? &in.profiles.rowpress
        : p == "rowhammer" ? &in.profiles.rowhammer
                           : nullptr;
    telemetry::MetricsRegistry greedy_reg, bnb_reg;
    search::SearchRunSetup setup;
    setup.base.seed = cfg.seed;
    setup.base.bfa.max_flips = 25;
    setup.base.bfa.eval_samples = 100;
    setup.config.kind = search::SearchKind::kBranchAndBound;
    setup.config.max_nodes = 64;
    setup.config.branch = 5;
    setup.config.expand_batch = 4;
    setup.config.threads = 2;
    auto run = [&](search::SearchRunSetup s, telemetry::MetricsRegistry* reg,
                   search::SearchStats* stats) {
      if (trace != nullptr) {
        s.base.metrics = reg;
        s.base.trace = trace;
      }
      telemetry::Span span(trace, "bench.run_profile_attack", "bench");
      const double t0 = now_s();
      attack::AttackResult res =
          prof ? search::run_profile_attack(spec, in.states.at(cfg.model), in.data,
                                            *prof, in.device->geometry(), s, stats)
               : search::run_unconstrained_attack(spec, in.states.at(cfg.model),
                                                  in.data, s, stats);
      return std::make_pair(res, now_s() - t0);
    };
    const std::string key = std::string(cfg.model) + "/" + p + "/s" +
                            std::to_string(cfg.seed);
    search::SearchStats stats;
    const auto [bnb, bnb_s] = run(setup, &bnb_reg, &stats);
    ++r.attempted;
    if (greedy) {
      search::SearchRunSetup greedy_setup = setup;
      greedy_setup.config.kind = search::SearchKind::kGreedy;
      const auto [probe, probe_s] = run(greedy_setup, &greedy_reg, nullptr);
      ++r.attempted;
      gate(bnb.num_flips() <= probe.num_flips(),
           "B&B chain longer than its greedy probe on " + key);
      u.greedy_digests[key + "/greedy"] = chain_digest(probe);
      u.greedy_s += probe_s;
      u.fp_greedy += greedy_reg.snapshot().counter_or("attack.forward_passes");
    }
    u.bnb_digests[key + "/bnb"] = chain_digest(bnb);
    u.bnb_s += bnb_s;
    u.bnb_flips += bnb.num_flips();
    u.nodes += stats.nodes_expanded;
    u.pruned += stats.nodes_pruned;
    u.cache_hits += stats.cache_hits;
    u.rounds += stats.rounds;
    u.fp_bnb += bnb_reg.snapshot().counter_or("attack.forward_passes");
  }
  return u;
}

/// B&B wall time beyond its greedy probe, per node expanded.
double node_ms(const Unit& u, double greedy_s) {
  return 1e3 * (u.bnb_s - greedy_s) / u.nodes;
}

}  // namespace

void warm_bnb(const Args& args) {
  warm_minis(args);
  warm_profiles(args, mini_chip());
}

void run_bnb(const Args& args, Result& r) {
  std::vector<SetupTimes> times;
  Inputs in;
  for (int i = 0; i < kFirstSetups; ++i) in = set_up(args, &times.emplace_back());
  const auto resample = [&] { (void)set_up(args, &times.emplace_back()); };
  const auto report_setup = [&] {
    std::vector<double> setup_s, synth, profile;
    std::map<std::string, std::vector<double>> load;
    for (const SetupTimes& t : times) {
      setup_s.push_back(t.total_s);
      synth.push_back(t.synth_ms);
      profile.push_back(t.profile_ms);
      for (const auto& [k, ms] : t.load_ms) load[k].push_back(ms);
    }
    r.set("setup_s", median(setup_s), "s");
    if (!args.trace) return;
    r.set("data.synth_ms.vision4_mini", median(synth), "ms");
    for (const auto& [k, v] : load) r.set("exp.model_load_ms." + k, median(v), "ms");
    r.set("profile.load_ms", median(profile), "ms");
  };

  if (!args.trace) {
    // The first pass runs the greedy probes too; every pass after it runs
    // B&B only.  At least two passes run, so the chains are always
    // compared within a run; more run while the next one fits.  The
    // fastest pass is reported: interference from a shared host only adds
    // time.
    std::vector<double> work_s, op_ms;
    const double start = now_s();
    const Unit first = run_unit(args, in, r, true, nullptr, resample);
    gate_against_previous_runs(args, "bnb-mini", first.digests());
    auto record = [&](const Unit& u) {
      work_s.push_back(u.bnb_s);
      op_ms.push_back(node_ms(u, first.greedy_s));
      r.note("bnb pass: bnb " + std::to_string(u.bnb_s) + " s, greedy " +
             std::to_string(first.greedy_s) + " s, nodes " +
             std::to_string(u.nodes) + ", bnb flips " + std::to_string(u.bnb_flips));
    };
    record(first);
    double last = 0.0;
    while (work_s.size() < 2 || now_s() - start + last <= args.seconds) {
      const double t0 = now_s();
      const Unit u = run_unit(args, in, r, false, nullptr, resample);
      last = now_s() - t0;
      gate(u.bnb_digests == first.bnb_digests,
           "B&B chains changed between repetitions");
      record(u);
    }
    report_setup();
    r.set("work_s", *std::min_element(work_s.begin(), work_s.end()), "s");
    r.set("op_ms", *std::min_element(op_ms.begin(), op_ms.end()), "ms");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  const Unit plain = run_unit(args, in, r, true, nullptr, resample);
  report_setup();
  telemetry::TraceCollector trace;
  const Unit traced = run_unit(args, in, r, true, &trace);
  gate(traced.digests() == plain.digests(),
       "traced and untraced B&B runs produced different chains");
  gate_against_previous_runs(args, "bnb-mini", plain.digests());
  r.set("telemetry.trace_overhead_pct",
        100.0 * ((traced.bnb_s + traced.greedy_s) / (plain.bnb_s + plain.greedy_s) - 1.0),
        "pct");

  r.set("bnb_s", plain.bnb_s, "s");
  r.set("bnb_flips", plain.bnb_flips, "flips");
  r.set("search.nodes_expanded", static_cast<double>(traced.nodes), "count");
  r.set("search.nodes_pruned", static_cast<double>(traced.pruned), "count");
  r.set("search.cache_hits", static_cast<double>(traced.cache_hits), "count");
  r.set("search.rounds", static_cast<double>(traced.rounds), "count");
  r.set("search.node_ms", node_ms(plain, plain.greedy_s), "ms");
  r.set("search.greedy_probe_s", plain.greedy_s, "s");
  r.set("search.forward_passes_per_node",
        static_cast<double>(traced.fp_bnb - traced.fp_greedy) / traced.nodes, "count");
  set_tail(r, "search.expand_ms", span_ms(trace.events(), "search.expand"));
  write_trace(args, trace.events());
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
