#include "attack/bfa.h"

#include <algorithm>

#include "attack/candidates.h"
#include "attack/eval.h"
#include "common/check.h"

namespace rowpress::attack {

void ProgressiveBitFlipAttack::bind_telemetry(
    telemetry::MetricsRegistry* metrics, telemetry::TraceCollector* trace) {
  if (metrics) {
    tel_.iterations = &metrics->counter("attack.iterations");
    tel_.forward_passes = &metrics->counter("attack.forward_passes");
    tel_.bits_evaluated = &metrics->counter("attack.bits_evaluated");
    tel_.layer_trials = &metrics->counter("attack.layer_trials");
    tel_.flips = &metrics->counter("attack.flips");
    tel_.suffix_forward_passes =
        &metrics->counter("attack.suffix_forward_passes");
    tel_.candidate_pool = &metrics->gauge("attack.candidate_pool");
  } else {
    tel_ = Telemetry{};
  }
  trace_ = trace;
}

AttackResult ProgressiveBitFlipAttack::run_unconstrained(
    nn::QuantizedModel& qmodel, const data::Dataset& attack_data,
    const data::Dataset& eval_data) {
  return run_impl(qmodel, nullptr, attack_data, eval_data);
}

AttackResult ProgressiveBitFlipAttack::run_profile_aware(
    nn::QuantizedModel& qmodel, std::vector<FeasibleBit> feasible,
    const data::Dataset& attack_data, const data::Dataset& eval_data) {
  // run_impl reads `feasible` through a pointer; keep it alive here.
  return run_impl(qmodel, &feasible, attack_data, eval_data);
}

AttackResult ProgressiveBitFlipAttack::run_impl(
    nn::QuantizedModel& qmodel, const std::vector<FeasibleBit>* feasible,
    const data::Dataset& attack_data, const data::Dataset& eval_data) {
  nn::Module& model = qmodel.model();
  model.set_training(false);

  // Fixed, class-balanced evaluation subset for the per-flip accuracy
  // trace (strided so ordered-by-class datasets stay stratified).
  const std::vector<int> eval_idx =
      strided_eval_indices(config_.eval_samples, eval_data.size());

  if (cancel_) cancel_->check("bfa.start");

  AttackResult result;
  result.candidate_pool_size =
      feasible ? static_cast<std::int64_t>(feasible->size())
               : qmodel.total_weight_bytes() * 8;
  if (tel_.candidate_pool)
    tel_.candidate_pool->set(
        static_cast<double>(result.candidate_pool_size));

  // Batch loss and eval accuracy both run on the suffix-replay evaluator
  // (see BfaConfig::incremental_eval), bit-identical to full forwards.
  SuffixEvaluator batch_eval(qmodel, config_.incremental_eval,
                             tel_.forward_passes, tel_.suffix_forward_passes);
  SuffixEvaluator acc_eval(qmodel, config_.incremental_eval,
                           tel_.forward_passes, tel_.suffix_forward_passes);
  const std::vector<int> eval_labels = data::gather_labels(eval_data, eval_idx);
  result.accuracy_before = accuracy_of(
      acc_eval.forward(data::gather_inputs(eval_data, eval_idx)), eval_labels);
  result.accuracy_after = result.accuracy_before;

  const double target = eval_data.random_guess_accuracy() +
                        config_.accuracy_margin;
  if (result.accuracy_before <= target) {
    result.objective_reached = true;
    return result;
  }

  std::vector<std::int64_t> committed;  // sorted pack_ref keys
  nn::CrossEntropyLoss ce;

  int barren_rounds = 0;
  while (static_cast<int>(result.flips.size()) < config_.max_flips) {
    // Cooperative deadline/cancel poll, once per search iteration: at this
    // point every previous flip is committed and no tentative flip is
    // applied, so aborting here leaves the model in a consistent state.
    if (cancel_) cancel_->check("bfa.iteration");
    if (tel_.iterations) tel_.iterations->add();
    telemetry::Span iter_span(trace_, "bfa.iteration", "bfa");

    // A fresh attack batch every iteration (the attacker's x, y), so the
    // search cannot saturate on one batch's loss surface.
    const auto batch_idx =
        draw_batch(*rng_, config_.attack_batch_size, attack_data.size());
    const std::vector<int> batch_labels =
        data::gather_labels(attack_data, batch_idx);

    // Gradients of the attack objective w.r.t. the quantized weights; this
    // forward also records each child's input for the replays below.
    model.zero_grad();
    ce.forward(batch_eval.forward(data::gather_inputs(attack_data, batch_idx)),
               batch_labels);
    model.backward(ce.backward());

    // Intra-layer search: each layer's best loss-increasing bit.
    LayerTop1Sink best(qmodel.num_qparams());
    score_candidates(qmodel, feasible, committed, best, tel_.bits_evaluated);

    // Rank layers by predicted score, keep the strongest few.
    std::vector<int> order;
    for (std::size_t l = 0; l < qmodel.num_qparams(); ++l)
      if (best.has(l)) order.push_back(static_cast<int>(l));
    if (order.empty()) {
      // No loss-increasing candidate on this batch; a few redraws may
      // still find one before we declare the pool exhausted.
      batch_eval.release();
      if (++barren_rounds >= 3) break;
      continue;
    }
    barren_rounds = 0;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return ranks_before(best.best(static_cast<std::size_t>(a)),
                          best.best(static_cast<std::size_t>(b)));
    });
    if (static_cast<int>(order.size()) > config_.max_layer_trials)
      order.resize(static_cast<std::size_t>(config_.max_layer_trials));
    if (tel_.layer_trials)
      tel_.layer_trials->add(static_cast<std::int64_t>(order.size()));

    // Inter-layer search: try each layer's candidate, keep the max loss.
    double best_loss = -1.0;
    const Candidate* elected = nullptr;
    for (const int l : order) {
      const Candidate& cand = best.best(static_cast<std::size_t>(l));
      qmodel.apply_bit_flip(cand.ref);
      const double loss =
          ce.forward(batch_eval.try_from(batch_eval.child_of(l)), batch_labels);
      qmodel.apply_bit_flip(cand.ref);  // restore (XOR is self-inverse)
      if (loss > best_loss) {
        best_loss = loss;
        elected = &cand;
      }
    }
    RP_ASSERT(elected != nullptr, "inter-layer search found no layer");
    batch_eval.release();  // the batch record is dead until the next draw

    // Commit the elected flip; physically the cell can flip only once.
    FlipRecord rec;
    rec.ref = elected->ref;
    rec.weight_delta = qmodel.apply_bit_flip(elected->ref);
    rec.loss_after = best_loss;
    committed.insert(std::upper_bound(committed.begin(), committed.end(),
                                      elected->packed),
                     elected->packed);
    rec.accuracy_after = accuracy_of(
        acc_eval.commit_from(acc_eval.child_of(elected->ref.param_index)),
        eval_labels);
    result.accuracy_after = rec.accuracy_after;
    result.flips.push_back(rec);
    if (tel_.flips) tel_.flips->add();
    iter_span.note("loss", best_loss);
    iter_span.note("accuracy", rec.accuracy_after);
    iter_span.note("flips", static_cast<double>(result.flips.size()));
    iter_span.finish();

    if (rec.accuracy_after <= target) {
      result.objective_reached = true;
      break;
    }
  }
  return result;
}

}  // namespace rowpress::attack
