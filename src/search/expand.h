// NodeExpander: the evaluation kernel of the branch-and-bound search.
//
// Each pool worker owns one expander wrapping a private QuantizedReplica
// (identical across workers — built from the same trained state and the
// same quantization stream), so expansions run without sharing any model
// state.  Expanding a node is a pure function of (node chain, batch seed):
//
//   1. apply the chain's flips (XOR) to the private replica;
//   2. draw the node's attack batch from an RNG derived from the chain's
//      canonical hash — the batch depends on the node, never on which
//      worker expands it or when;
//   3. gradient pass, then score every allowed candidate bit not in the
//      chain by the BFA rule |dL/dw * delta_w| and keep the global
//      top-`branch` (attack/candidates.h, the greedy search's scorer);
//   4. measure each survivor's realized loss on the attack::SuffixEvaluator
//      (suffix replay, full forward fallback exactly as the greedy BFA) and
//      its eval-subset accuracy (always full forwards);
//   5. un-apply the chain (XOR is self-inverse).
//
// Children are returned in deterministic rank order.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/bfa.h"
#include "attack/eval.h"
#include "attack/mapping.h"
#include "attack/runner.h"
#include "data/dataset.h"
#include "search/node.h"
#include "telemetry/metric.h"

namespace rowpress::search {

/// One evaluated child candidate, pinned.
struct ChildEval {
  nn::WeightBitRef ref;
  double predicted_score = 0.0;  ///< gradient-predicted loss increase
  double loss = 0.0;             ///< measured attack-batch loss after the flip
  double accuracy = 0.0;         ///< measured eval-subset accuracy after it
};

/// Work counters shared by all expanders (telemetry::Counter is atomic);
/// any pointer may be null.
struct ExpandTelemetry {
  telemetry::Counter* forward_passes = nullptr;
  telemetry::Counter* suffix_forward_passes = nullptr;
  telemetry::Counter* bits_evaluated = nullptr;
};

class NodeExpander {
 public:
  /// `feasible` restricts candidates to the profile-aware set (may be null
  /// for the unconstrained attack); not owned, must outlive the expander.
  /// `tel`'s counters receive every expansion's work.
  NodeExpander(attack::QuantizedReplica replica, const attack::BfaConfig& bfa,
               const std::vector<attack::FeasibleBit>* feasible,
               const ExpandTelemetry& tel);

  NodeExpander(NodeExpander&&) = default;

  /// Eval-subset accuracy of the pristine replica (the root evaluation).
  double root_accuracy(const data::Dataset& eval_data,
                       const std::vector<int>& eval_idx);

  /// Evaluates up to `branch` children of `node` (see file comment).
  std::vector<ChildEval> expand(const SearchNode& node, int branch,
                                std::uint64_t batch_seed,
                                const data::Dataset& attack_data,
                                const data::Dataset& eval_data,
                                const std::vector<int>& eval_idx);

  nn::QuantizedModel& qmodel() { return *replica_.qmodel; }

 private:
  attack::QuantizedReplica replica_;
  attack::BfaConfig bfa_;
  const std::vector<attack::FeasibleBit>* feasible_;
  ExpandTelemetry tel_;
  attack::SuffixEvaluator eval_;  ///< attack-batch loss of each child
};

}  // namespace rowpress::search
