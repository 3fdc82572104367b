// The one candidate scorer of every bit-flip search: BFA's gradient rule
// (Rakin et al.) restricted, for Algorithm 3, to profile-feasible bits whose
// physical flip direction matches the bit's current value.
//
// score_candidates() walks every bit of every attackable weight
// (unconstrained) or a feasible list (profile-aware), scores each
// direction-compatible bit by dL/dw * delta_w and offers it to a sink:
// LayerTop1Sink for greedy BFA's intra-layer search, TopKSink for
// branch-and-bound's children and, per 64-bit word, for the ECC-aware
// attack.  Both rank by one total order — higher score first, then lower
// pack_ref — so which bit wins never depends on scan order.  Committed bits
// are excluded in every mode (a disturbed cell cannot be flipped again);
// the exclusion set is consulted only for candidates the sink admits, so
// the per-bit loop does no set lookup.  Sinks are template parameters: the
// loop inlines their admits() test and makes no indirect call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "attack/mapping.h"
#include "common/bitutil.h"
#include "dram/cell_model.h"
#include "nn/quant/qmodel.h"
#include "telemetry/metric.h"

namespace rowpress::attack {

/// Signed dequantized-weight change from flipping bit `b` of code `w` —
/// the delta_w of the BFA candidate score |dL/dw * delta_w|.
inline float flip_delta(std::int8_t w, int b, float scale) {
  return static_cast<float>(int8_flip_delta(w, b)) * scale;
}

/// True if the physical cell's flip direction allows flipping the current
/// bit value (a 0->1 cell can only raise a 0 bit, and vice versa).
inline bool direction_allows(bool current_bit, dram::FlipDirection dir) {
  return dir == dram::FlipDirection::kZeroToOne ? !current_bit : current_bit;
}

/// Packs a WeightBitRef into one 64-bit key: bit 0-2 the bit index, bits
/// 4-43 the weight index, bits 44+ the param index.  Order-preserving per
/// field, so sorting packed keys sorts (param, weight, bit) lexicographically
/// — which is also weight-image bit order (qparams are offset-sorted).
inline std::int64_t pack_ref(const nn::WeightBitRef& r) {
  return (static_cast<std::int64_t>(r.param_index) << 44) |
         (r.weight_index << 4) | r.bit;
}

inline nn::WeightBitRef unpack_ref(std::int64_t packed) {
  nn::WeightBitRef r;
  r.param_index = static_cast<int>(packed >> 44);
  r.weight_index = (packed >> 4) & ((std::int64_t{1} << 40) - 1);
  r.bit = static_cast<int>(packed & 0xf);
  return r;
}

struct Candidate {
  nn::WeightBitRef ref;
  std::int64_t packed = 0;  ///< pack_ref(ref), the tie-break key
  double score = 0.0;       ///< predicted loss increase, grad * delta_w
};

/// The shared rank: higher score first, then lower pack_ref.
inline bool outranks(double score, std::int64_t packed,
                     const Candidate& other) {
  if (score != other.score) return score > other.score;
  return packed < other.packed;
}

inline bool ranks_before(const Candidate& a, const Candidate& b) {
  return outranks(a.score, a.packed, b);
}

/// Scores every candidate bit and offers it to `sink`.  `feasible` null =
/// every bit of every attackable weight (weights with a zero gradient are
/// skipped: none of their bits can change the loss); otherwise the feasible
/// list, filtered by flip direction.  `excluded` holds the committed bits as
/// sorted pack_ref keys; in profile mode they must come from `feasible`.
///
/// Sink concept:
///   bool admits(double score, std::int64_t packed) const;  // would keep it
///   void take(const Candidate& c);
///
/// Returns the bits evaluated — bits walked, excluded ones not counted —
/// and adds them to `bits_evaluated` when non-null.
template <class Sink>
std::int64_t score_candidates(const nn::QuantizedModel& qmodel,
                              const std::vector<FeasibleBit>* feasible,
                              const std::vector<std::int64_t>& excluded,
                              Sink& sink,
                              telemetry::Counter* bits_evaluated = nullptr) {
  const auto& qparams = qmodel.qparams();
  const auto offer = [&](const nn::WeightBitRef& ref, std::int64_t packed,
                         double score) {
    if (sink.admits(score, packed) &&
        !std::binary_search(excluded.begin(), excluded.end(), packed))
      sink.take(Candidate{ref, packed, score});
  };

  std::int64_t evaluated = 0;
  if (feasible == nullptr) {
    for (std::size_t l = 0; l < qparams.size(); ++l) {
      const auto& qp = qparams[l];
      const float* grad = qp.param->grad.cdata();
      for (std::int64_t i = 0; i < qp.num_weights(); ++i) {
        const float g = grad[i];
        if (g == 0.0f) continue;
        const std::int8_t code = qp.qr.q[static_cast<std::size_t>(i)];
        const nn::WeightBitRef ref{static_cast<int>(l), i, 0};
        const std::int64_t base = pack_ref(ref);
        evaluated += 8;
        for (int b = 0; b < 8; ++b)
          offer({ref.param_index, i, b}, base | b,
                static_cast<double>(g) * flip_delta(code, b, qp.qr.scale));
      }
    }
    for (const std::int64_t k : excluded) {
      const nn::WeightBitRef r = unpack_ref(k);
      if (qparams[static_cast<std::size_t>(r.param_index)]
              .param->grad[r.weight_index] != 0.0f)
        --evaluated;
    }
  } else {
    evaluated = static_cast<std::int64_t>(feasible->size()) -
                static_cast<std::int64_t>(excluded.size());
    for (const FeasibleBit& fb : *feasible) {
      const auto& qp = qparams[static_cast<std::size_t>(fb.ref.param_index)];
      const std::int8_t code =
          qp.qr.q[static_cast<std::size_t>(fb.ref.weight_index)];
      if (!direction_allows(int8_bit(code, fb.ref.bit), fb.direction))
        continue;
      const float g = qp.param->grad[fb.ref.weight_index];
      offer(fb.ref, pack_ref(fb.ref),
            static_cast<double>(g) * flip_delta(code, fb.ref.bit,
                                                qp.qr.scale));
    }
  }
  if (bits_evaluated) bits_evaluated->add(evaluated);
  return evaluated;
}

/// Greedy BFA's intra-layer search: the best loss-increasing (score > 0)
/// candidate of each layer.
class LayerTop1Sink {
 public:
  // The empty slot {score 0, packed min} admits exactly the scores > 0.
  explicit LayerTop1Sink(std::size_t num_layers)
      : best_(num_layers,
              Candidate{{}, std::numeric_limits<std::int64_t>::min(), 0.0}) {}

  bool admits(double score, std::int64_t packed) const {
    return outranks(score, packed,
                    best_[static_cast<std::size_t>(packed >> 44)]);
  }
  void take(const Candidate& c) {
    best_[static_cast<std::size_t>(c.ref.param_index)] = c;
  }

  bool has(std::size_t layer) const { return best_[layer].score > 0.0; }
  const Candidate& best(std::size_t layer) const { return best_[layer]; }

 private:
  std::vector<Candidate> best_;
};

/// The top `k` candidates in rank order: only loss-increasing ones
/// (score > 0) by default, or of any score with `positive_only` off.
class TopKSink {
 public:
  explicit TopKSink(std::size_t k, bool positive_only = true)
      : k_(k), positive_only_(positive_only) {}

  bool admits(double score, std::int64_t packed) const {
    return (score > 0.0 || !positive_only_) &&
           (top_.size() < k_ || outranks(score, packed, top_.back()));
  }
  void take(const Candidate& c) {
    top_.insert(std::upper_bound(top_.begin(), top_.end(), c, ranks_before),
                c);
    if (top_.size() > k_) top_.pop_back();
  }

  const std::vector<Candidate>& top() const { return top_; }

 private:
  std::size_t k_;
  bool positive_only_;
  std::vector<Candidate> top_;
};

}  // namespace rowpress::attack
