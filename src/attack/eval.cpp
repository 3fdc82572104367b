#include "attack/eval.h"

#include <algorithm>

#include "common/check.h"
#include "nn/loss.h"

namespace rowpress::attack {
namespace {

/// Maps each attackable qparam to the top-level Sequential child owning it
/// (by Param identity).  Empty result = a param is owned elsewhere, or is
/// shared by more than one child (weight tying — replaying from any single
/// child would skip the other owners); the evaluator then runs full
/// forwards.
std::vector<int> map_qparams_to_children(nn::Sequential& seq,
                                         const nn::QuantizedModel& qmodel) {
  const auto& qparams = qmodel.qparams();
  std::vector<int> child_of(qparams.size(), -1);
  for (std::size_t c = 0; c < seq.size(); ++c) {
    for (const nn::Param* p : seq.child(c).parameters()) {
      for (std::size_t l = 0; l < qparams.size(); ++l) {
        if (qparams[l].param != p) continue;
        if (child_of[l] >= 0 && child_of[l] != static_cast<int>(c)) return {};
        child_of[l] = static_cast<int>(c);
      }
    }
  }
  for (const int c : child_of)
    if (c < 0) return {};
  return child_of;
}

}  // namespace

double batch_loss(nn::Module& model, const nn::Tensor& inputs,
                  const std::vector<int>& labels,
                  telemetry::Counter* forward_passes) {
  nn::CrossEntropyLoss ce;
  if (forward_passes) forward_passes->add();
  return ce.forward(model.forward(inputs), labels);
}

double subset_accuracy(nn::Module& model, const data::Dataset& ds,
                       const std::vector<int>& indices,
                       telemetry::Counter* forward_passes) {
  RP_REQUIRE(!indices.empty(), "subset_accuracy needs at least one sample");
  constexpr int kBatch = 128;
  int correct_total = 0;
  std::vector<int> chunk;
  chunk.reserve(kBatch);
  for (std::size_t off = 0; off < indices.size(); off += kBatch) {
    const std::size_t end = std::min(indices.size(), off + kBatch);
    chunk.assign(indices.begin() + static_cast<std::ptrdiff_t>(off),
                 indices.begin() + static_cast<std::ptrdiff_t>(end));
    if (forward_passes) forward_passes->add();
    const nn::Tensor logits = model.forward(data::gather_inputs(ds, chunk));
    const auto labels = data::gather_labels(ds, chunk);
    correct_total += static_cast<int>(
        nn::accuracy(logits, labels) * static_cast<double>(chunk.size()) + 0.5);
  }
  return static_cast<double>(correct_total) /
         static_cast<double>(indices.size());
}

std::vector<int> draw_batch(Rng& rng, int n, int dataset_size) {
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int& i : idx)
    i = static_cast<int>(
        rng.uniform_u64(static_cast<std::uint64_t>(dataset_size)));
  return idx;
}

double accuracy_of(const nn::Tensor& logits, const std::vector<int>& labels) {
  const int correct = static_cast<int>(
      nn::accuracy(logits, labels) * static_cast<double>(labels.size()) + 0.5);
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

SuffixEvaluator::SuffixEvaluator(nn::QuantizedModel& qmodel, bool incremental,
                                 telemetry::Counter* forward_passes,
                                 telemetry::Counter* suffix_passes)
    : model_(qmodel.model()),
      forward_passes_(forward_passes),
      suffix_passes_(suffix_passes) {
  auto* seq = incremental ? dynamic_cast<nn::Sequential*>(&model_) : nullptr;
  if (seq == nullptr) return;
  child_of_ = map_qparams_to_children(*seq, qmodel);
  if (!child_of_.empty()) seq_ = seq;
}

nn::Tensor SuffixEvaluator::forward(const nn::Tensor& x) {
  if (forward_passes_) forward_passes_->add();
  if (!seq_) {
    input_ = x;
    return model_.forward(x);
  }
  captures_.clear();  // release the old record before building the new one
  captures_.reserve(seq_->size());
  nn::Tensor cur = x;
  for (std::size_t i = 0; i < seq_->size(); ++i) {
    captures_.push_back(cur);  // COW share: no element copy here
    cur = seq_->child(i).forward(cur);
  }
  return cur;
}

nn::Tensor SuffixEvaluator::replay(std::size_t c, bool refresh) {
  if (forward_passes_) forward_passes_->add();
  if (!seq_) {
    RP_REQUIRE(!input_.empty(), "SuffixEvaluator replay before forward()");
    return model_.forward(input_);
  }
  RP_REQUIRE(captures_.size() == seq_->size(),
             "SuffixEvaluator replay before forward()");
  RP_REQUIRE(c < seq_->size(), "SuffixEvaluator replay child out of range");
  if (suffix_passes_) suffix_passes_->add();
  nn::Tensor cur = captures_[c];
  for (std::size_t i = c; i < seq_->size(); ++i) {
    if (refresh && i > c) captures_[i] = cur;
    cur = seq_->child(i).forward(cur);
  }
  return cur;
}

int argmax_row(const nn::Tensor& logits, int row) {
  RP_REQUIRE(logits.ndim() == 2, "argmax_row expects [N, C] logits");
  const int c = logits.dim(1);
  int best = 0;
  for (int j = 1; j < c; ++j)
    if (logits.at2(row, j) > logits.at2(row, best)) best = j;
  return best;
}

std::vector<int> strided_eval_indices(int n_eval, int dataset_size) {
  RP_REQUIRE(dataset_size > 0, "strided_eval_indices: empty dataset");
  const int n = std::min(n_eval, dataset_size);
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    idx[static_cast<std::size_t>(i)] = static_cast<int>(
        static_cast<std::int64_t>(i) * dataset_size / n);
  return idx;
}

}  // namespace rowpress::attack
