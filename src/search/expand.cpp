#include "search/expand.h"

#include "attack/candidates.h"
#include "common/rng.h"
#include "nn/loss.h"

namespace rowpress::search {
namespace {

/// Applies (or, called again, un-applies) a chain to a replica.
void xor_chain(nn::QuantizedModel& qmodel,
               const std::vector<nn::WeightBitRef>& chain) {
  for (const auto& ref : chain) qmodel.apply_bit_flip(ref);
}

}  // namespace

NodeExpander::NodeExpander(attack::QuantizedReplica replica,
                           const attack::BfaConfig& bfa,
                           const std::vector<attack::FeasibleBit>* feasible,
                           const ExpandTelemetry& tel)
    : replica_(std::move(replica)),
      bfa_(bfa),
      feasible_(feasible),
      tel_(tel),
      eval_(*replica_.qmodel, bfa.incremental_eval, tel.forward_passes,
            tel.suffix_forward_passes) {
  replica_.model->set_training(false);
}

double NodeExpander::root_accuracy(const data::Dataset& eval_data,
                                   const std::vector<int>& eval_idx) {
  return attack::subset_accuracy(*replica_.model, eval_data, eval_idx,
                                 tel_.forward_passes);
}

std::vector<ChildEval> NodeExpander::expand(
    const SearchNode& node, int branch, std::uint64_t batch_seed,
    const data::Dataset& attack_data, const data::Dataset& eval_data,
    const std::vector<int>& eval_idx) {
  nn::Module& model = *replica_.model;
  nn::QuantizedModel& qmodel = *replica_.qmodel;
  const std::vector<nn::WeightBitRef> chain = node.chain();
  xor_chain(qmodel, chain);

  // The node's attack batch: derived from the chain's canonical hash, so a
  // node is expanded onto the same batch no matter which worker draws it.
  Rng rng(batch_seed);
  const std::vector<int> batch_idx =
      attack::draw_batch(rng, bfa_.attack_batch_size, attack_data.size());
  const std::vector<int> batch_labels =
      data::gather_labels(attack_data, batch_idx);

  // Gradient pass; the forward also records each child's input for the
  // suffix replays below.
  nn::CrossEntropyLoss ce;
  model.zero_grad();
  ce.forward(eval_.forward(data::gather_inputs(attack_data, batch_idx)),
             batch_labels);
  model.backward(ce.backward());

  // Candidate scoring (BFA rule), global top-`branch` across all layers.
  // The chain's bits (node.key, sorted) are excluded — a disturbed cell
  // cannot flip again.
  attack::TopKSink top(static_cast<std::size_t>(branch));
  attack::score_candidates(qmodel, feasible_, node.key, top,
                           tel_.bits_evaluated);

  // Measure each survivor: realized attack-batch loss, then eval accuracy
  // (always full forwards) with the batch record released.
  std::vector<ChildEval> children;
  children.reserve(top.top().size());
  for (const attack::Candidate& cand : top.top()) {
    qmodel.apply_bit_flip(cand.ref);
    ChildEval child;
    child.ref = cand.ref;
    child.predicted_score = cand.score;
    child.loss = ce.forward(
        eval_.try_from(eval_.child_of(cand.ref.param_index)), batch_labels);
    qmodel.apply_bit_flip(cand.ref);  // restore (XOR is self-inverse)
    children.push_back(child);
  }
  eval_.release();
  for (ChildEval& child : children) {
    qmodel.apply_bit_flip(child.ref);
    child.accuracy = attack::subset_accuracy(model, eval_data, eval_idx,
                                             tel_.forward_passes);
    qmodel.apply_bit_flip(child.ref);
  }

  xor_chain(qmodel, chain);  // leave the replica pristine
  return children;
}

}  // namespace rowpress::search
