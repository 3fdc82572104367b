#include "attack/ecc_aware.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "attack/candidates.h"
#include "attack/eval.h"
#include "common/check.h"
#include "nn/loss.h"

namespace rowpress::attack {
namespace {

/// The ECC-aware sink: for every exploitable, not yet attacked word
/// (`words` ascending), its direction-compatible candidates of any score —
/// counted, and the top `k` kept by the shared rank.
struct WordSink {
  const nn::QuantizedModel& qmodel;
  const std::vector<std::int64_t>& words;
  const std::vector<bool>& word_used;
  std::vector<std::size_t> compatible;
  std::vector<TopKSink> top;

  // Word membership needs the image offset, so take() checks it.
  bool admits(double, std::int64_t) const { return true; }
  void take(const Candidate& c) {
    const std::int64_t word = qmodel.image_bit_offset(c.ref) / 64;
    const auto it = std::lower_bound(words.begin(), words.end(), word);
    if (it == words.end() || *it != word) return;
    const auto slot = static_cast<std::size_t>(it - words.begin());
    if (word_used[slot]) return;
    ++compatible[slot];
    if (top[slot].admits(c.score, c.packed)) top[slot].take(c);
  }
};

/// One candidate word commit: `refs` in rank order, `score` their sum.
struct WordPlan {
  std::size_t slot = 0;  ///< index into the exploitable-word list
  double score = 0.0;
  std::vector<nn::WeightBitRef> refs;
  std::size_t child = SIZE_MAX;  ///< first Sequential child `refs` touch
};

}  // namespace

EccAttackResult EccAwareAttack::run(nn::QuantizedModel& qmodel,
                                    const std::vector<FeasibleBit>& feasible,
                                    const data::Dataset& attack_data,
                                    const data::Dataset& eval_data) {
  nn::Module& model = qmodel.model();
  model.set_training(false);

  // Only 64-bit ECC words of the weight image that can host a full
  // silent-corruption group matter.
  std::map<std::int64_t, int> per_word;
  for (const FeasibleBit& fb : feasible)
    ++per_word[qmodel.image_bit_offset(fb.ref) / 64];
  std::vector<std::int64_t> words;  // ascending
  for (const auto& [w, n] : per_word)
    if (n >= config_.bits_per_word) words.push_back(w);

  EccAttackResult result;
  result.exploitable_words = static_cast<std::int64_t>(words.size());

  const std::vector<int> eval_idx =
      strided_eval_indices(config_.eval_samples, eval_data.size());
  const std::vector<int> eval_labels = data::gather_labels(eval_data, eval_idx);
  SuffixEvaluator batch_eval(qmodel, /*incremental=*/true);
  SuffixEvaluator acc_eval(qmodel, /*incremental=*/true);

  result.accuracy_before = accuracy_of(
      acc_eval.forward(data::gather_inputs(eval_data, eval_idx)), eval_labels);
  result.accuracy_after = result.accuracy_before;
  const double target =
      eval_data.random_guess_accuracy() + config_.accuracy_margin;
  if (result.accuracy_before <= target) {
    result.objective_reached = true;
    return result;
  }
  if (words.empty()) return result;

  std::vector<bool> word_used(words.size(), false);
  nn::CrossEntropyLoss ce;
  int barren_rounds = 0;

  while (result.words_attacked < config_.max_words) {
    // Fresh attack batch + gradients.
    const auto batch_idx =
        draw_batch(*rng_, config_.attack_batch_size, attack_data.size());
    const auto labels = data::gather_labels(attack_data, batch_idx);
    model.zero_grad();
    ce.forward(batch_eval.forward(data::gather_inputs(attack_data, batch_idx)),
               labels);
    model.backward(ce.backward());

    // Score each unused word: its bits_per_word best direction-compatible
    // candidates by grad*delta; the group score is their sum.  Attacked
    // words are skipped whole, so no committed bit needs excluding.
    const auto k = static_cast<std::size_t>(config_.bits_per_word);
    WordSink sink{qmodel, words, word_used,
                  std::vector<std::size_t>(words.size(), 0),
                  std::vector<TopKSink>(words.size(),
                                        TopKSink(k, /*positive_only=*/false))};
    score_candidates(qmodel, &feasible, {}, sink);
    std::vector<WordPlan> plans;
    for (std::size_t slot = 0; slot < words.size(); ++slot) {
      if (sink.compatible[slot] < k) continue;
      WordPlan plan;
      plan.slot = slot;
      for (const Candidate& c : sink.top[slot].top()) {
        plan.score += c.score;
        plan.refs.push_back(c.ref);
        plan.child =
            std::min(plan.child, batch_eval.child_of(c.ref.param_index));
      }
      if (plan.score > 0.0) plans.push_back(std::move(plan));
    }
    if (plans.empty()) {
      batch_eval.release();
      if (++barren_rounds >= 3) break;
      continue;
    }
    barren_rounds = 0;
    std::sort(plans.begin(), plans.end(),
              [](const WordPlan& a, const WordPlan& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.slot < b.slot;
              });
    if (static_cast<int>(plans.size()) > config_.max_word_trials)
      plans.resize(static_cast<std::size_t>(config_.max_word_trials));

    // Tentatively apply each word group, keep the max-loss one.
    double best_loss = -1.0;
    const WordPlan* best = nullptr;
    for (const auto& plan : plans) {
      for (const auto& ref : plan.refs) qmodel.apply_bit_flip(ref);
      const double loss =
          ce.forward(batch_eval.try_from(plan.child), labels);
      for (const auto& ref : plan.refs) qmodel.apply_bit_flip(ref);
      if (loss > best_loss) {
        best_loss = loss;
        best = &plan;
      }
    }
    RP_ASSERT(best != nullptr, "ecc-aware word trial found nothing");
    batch_eval.release();

    for (const auto& ref : best->refs) {
      FlipRecord rec;
      rec.ref = ref;
      rec.weight_delta = qmodel.apply_bit_flip(ref);
      rec.loss_after = best_loss;
      result.flips.push_back(rec);
    }
    word_used[best->slot] = true;
    ++result.words_attacked;

    result.accuracy_after =
        accuracy_of(acc_eval.commit_from(best->child), eval_labels);
    result.flips.back().accuracy_after = result.accuracy_after;
    if (result.accuracy_after <= target) {
      result.objective_reached = true;
      break;
    }
  }
  return result;
}

}  // namespace rowpress::attack
