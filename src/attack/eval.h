// Forward-only evaluation helpers shared by the attack searches and the
// live serving layer.
//
// subset_accuracy is the *offline reference* the served-traffic accuracy
// is compared against: per-row GEMM FP sequences are independent of batch
// composition (each output row accumulates only its own input row, in a
// fixed order), and argmax_row uses the same first-max-wins tie rule as
// nn::accuracy — so identical weights and identical sample indices yield a
// bit-identical accuracy double regardless of how requests were batched.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "nn/module.h"
#include "nn/quant/qmodel.h"
#include "telemetry/metric.h"

namespace rowpress::attack {

/// Loss of the model on a fixed batch (forward only).
double batch_loss(nn::Module& model, const nn::Tensor& inputs,
                  const std::vector<int>& labels,
                  telemetry::Counter* forward_passes = nullptr);

/// Top-1 accuracy over the samples at `indices`, evaluated in chunks of
/// 128.  Bit-identical to any other batching of the same indices (see
/// file comment).
double subset_accuracy(nn::Module& model, const data::Dataset& ds,
                       const std::vector<int>& indices,
                       telemetry::Counter* forward_passes = nullptr);

/// Predicted class of row `row` of a [N, C] logits tensor — strict-greater
/// comparison keeps the earliest maximum, matching nn::accuracy.
int argmax_row(const nn::Tensor& logits, int row);

/// The fixed evaluation subset used for per-flip accuracy traces: n_eval
/// indices strided over [0, dataset_size) so class-ordered datasets stay
/// stratified.  n_eval is clamped to dataset_size.
std::vector<int> strided_eval_indices(int n_eval, int dataset_size);

/// An attack batch: `n` sample indices drawn uniformly, with replacement,
/// from [0, dataset_size) — one uniform_u64 draw each, in order.
std::vector<int> draw_batch(Rng& rng, int n, int dataset_size);

/// Top-1 accuracy of [N, C] logits against `labels`, with the same
/// arithmetic as subset_accuracy: nn::accuracy is correct/N exactly, so the
/// rounded product recovers the integer count and the double matches the
/// chunked path bit for bit.
double accuracy_of(const nn::Tensor& logits, const std::vector<int>& labels);

/// The suffix-replay evaluator every search measures tentative flips with —
/// the single owner of captured activations.
///
/// When the model is a flat Sequential whose attackable params each belong
/// to exactly one child (no weight tying), forward() records each child's
/// input (copy-on-write shares); a flip in child c cannot change the
/// activations feeding c, so try_from(c) / commit_from(c) re-run only
/// children [c, size()) from the record.  Bit-identical to a full forward:
/// the replay runs the same per-child forward code on the same input.
/// Otherwise — or with `incremental` off — every call runs a full forward
/// of the last forward() input, so callers never branch on the mode.
///
/// Every call adds one to `forward_passes`; replays also add one to
/// `suffix_passes` (either counter may be null).
class SuffixEvaluator {
 public:
  SuffixEvaluator(nn::QuantizedModel& qmodel, bool incremental,
                  telemetry::Counter* forward_passes = nullptr,
                  telemetry::Counter* suffix_passes = nullptr);

  /// True when calls replay suffixes; false = every call is a full forward.
  bool replays() const { return seq_ != nullptr; }

  /// Child a flip in qparam `param_index` must replay from (0 without
  /// replay, where every call is a full forward anyway).
  std::size_t child_of(int param_index) const {
    return child_of_.empty()
               ? 0
               : static_cast<std::size_t>(
                     child_of_[static_cast<std::size_t>(param_index)]);
  }

  /// Full forward of `x`, recording each child's input.  The gradient pass
  /// backpropagates through this forward.
  nn::Tensor forward(const nn::Tensor& x);

  /// Replays from child `c` for a tentative flip; the record is left as the
  /// last forward()/commit_from() wrote it.
  nn::Tensor try_from(std::size_t c) { return replay(c, /*refresh=*/false); }

  /// Replays from child `c` after a committed change confined to children
  /// >= c, refreshing the record downstream of `c` — successive commits may
  /// land in any child in any order.
  nn::Tensor commit_from(std::size_t c) { return replay(c, /*refresh=*/true); }

  /// Drops the record (frees one activation per child); the next call must
  /// be forward().
  void release() {
    captures_.clear();
    input_ = nn::Tensor();
  }

 private:
  nn::Tensor replay(std::size_t c, bool refresh);

  nn::Module& model_;
  nn::Sequential* seq_ = nullptr;  ///< non-null => suffix replay
  std::vector<int> child_of_;      ///< qparam -> Sequential child
  telemetry::Counter* forward_passes_;
  telemetry::Counter* suffix_passes_;
  nn::Tensor input_;                  ///< last forward() input (full mode)
  std::vector<nn::Tensor> captures_;  ///< captures_[i] = child i's input
};

}  // namespace rowpress::attack
