#include "attack/runner.h"

#include "common/check.h"
#include "nn/kernels/kernels.h"
#include "nn/quant/qmodel.h"

namespace rowpress::attack {

QuantizedReplica make_quantized_replica(const models::ModelSpec& spec,
                                        const nn::ModelState& trained,
                                        Rng& init_rng) {
  QuantizedReplica r;
  r.model = spec.factory(init_rng);
  nn::restore_state(*r.model, trained);
  r.qmodel = std::make_unique<nn::QuantizedModel>(*r.model);
  return r;
}

PreparedTrial prepare_trial(const models::ModelSpec& spec,
                            const nn::ModelState& trained, std::uint64_t seed,
                            bool int8_eval,
                            const profile::BitFlipProfile* prof,
                            const dram::Geometry* geom) {
  RP_REQUIRE((prof == nullptr) == (geom == nullptr),
             "prepare_trial needs both a profile and its geometry, or neither");
  if (prof)
    RP_REQUIRE(prof->max_linear_bit() < geom->total_bits(),
               "profile '" + prof->mechanism_name() +
                   "' addresses cells beyond the device geometry — it was "
                   "built for a different chip");
  PreparedTrial t{{}, {}, Rng(seed)};
  Rng init_rng = t.rng.fork();
  t.replica = make_quantized_replica(spec, trained, init_rng);
  if (int8_eval) t.replica.qmodel->set_int8_execution(true);
  if (prof) {
    const WeightDramMapping mapping(
        *geom, t.replica.qmodel->total_weight_bytes(), t.rng);
    t.feasible = mapping.feasible_bits(*t.replica.qmodel, *prof);
  }
  return t;
}

namespace {

/// Greedy BFA on a fresh trial; profile-aware when `prof` is set.
AttackResult run_greedy(const models::ModelSpec& spec,
                        const nn::ModelState& trained,
                        const data::SplitDataset& data,
                        const profile::BitFlipProfile* prof,
                        const dram::Geometry* geom,
                        const AttackRunSetup& setup) {
  PreparedTrial trial =
      prepare_trial(spec, trained, setup.seed, setup.bfa.int8_eval, prof, geom);
  // Scoped: setup.metrics is typically a per-trial registry owned by the
  // caller; the thread-local binding must not outlive this call (the same
  // pooled worker thread runs training GEMMs for later trials).
  nn::kernels::ScopedBindMetrics kernel_metrics(setup.metrics);
  ProgressiveBitFlipAttack bfa(setup.bfa, trial.rng);
  bfa.bind_telemetry(setup.metrics, setup.trace);
  bfa.bind_cancel(setup.cancel);
  nn::QuantizedModel& qmodel = *trial.replica.qmodel;
  return prof ? bfa.run_profile_aware(qmodel, std::move(trial.feasible),
                                      data.test, data.test)
              : bfa.run_unconstrained(qmodel, data.test, data.test);
}

}  // namespace

AttackResult run_profile_attack(const models::ModelSpec& spec,
                                const nn::ModelState& trained,
                                const data::SplitDataset& data,
                                const profile::BitFlipProfile& prof,
                                const dram::Geometry& geom,
                                const AttackRunSetup& setup) {
  return run_greedy(spec, trained, data, &prof, &geom, setup);
}

AttackResult run_unconstrained_attack(const models::ModelSpec& spec,
                                      const nn::ModelState& trained,
                                      const data::SplitDataset& data,
                                      const AttackRunSetup& setup) {
  return run_greedy(spec, trained, data, nullptr, nullptr, setup);
}

}  // namespace rowpress::attack
