// The shared search core behind greedy BFA, branch-and-bound and the
// ECC-aware attack: the candidate scorer (attack/candidates.h) against a
// brute-force oracle, and the suffix-replay evaluator (attack/eval.h)
// against fresh full forwards, bit for bit.
#include "attack/candidates.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/eval.h"
#include "common/rng.h"
#include "models/zoo.h"
#include "nn/kernels/kernels.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/quant/qmodel.h"
#include "telemetry/registry.h"

namespace rowpress::attack {
namespace {

// ---------------------------------------------------------------------
// Candidate scorer vs. brute force
// ---------------------------------------------------------------------

/// Three quantized Linear layers with random codes and gradients drawn
/// from a five-value set, so exact score ties are common.  With
/// `zero_layer` >= 0 that layer's gradients are all zero.
struct ToyVictim {
  nn::Sequential net;
  std::unique_ptr<nn::QuantizedModel> qm;

  ToyVictim(Rng& rng, int zero_layer) {
    net.emplace<nn::Linear>(6, 5, rng, true, "fc1");
    net.emplace<nn::Linear>(5, 4, rng, true, "fc2");
    net.emplace<nn::Linear>(4, 3, rng, true, "fc3");
    qm = std::make_unique<nn::QuantizedModel>(net);
    const float grads[] = {-0.5f, -0.25f, 0.0f, 0.25f, 0.5f};
    for (std::size_t l = 0; l < qm->num_qparams(); ++l) {
      const auto& qp = qm->qparams()[l];
      for (std::int64_t i = 0; i < qp.num_weights(); ++i) {
        for (int b = 0; b < 8; ++b)
          if (rng.bernoulli(0.5))
            (void)qm->apply_bit_flip({static_cast<int>(l), i, b});
        const float g = grads[rng.uniform_u64(5)];
        qp.param->grad[i] = static_cast<int>(l) == zero_layer ? 0.0f : g;
      }
    }
  }

  std::int8_t code(const nn::WeightBitRef& r) const {
    return qm->qparams()[static_cast<std::size_t>(r.param_index)]
        .qr.q[static_cast<std::size_t>(r.weight_index)];
  }
  float grad(const nn::WeightBitRef& r) const {
    return qm->qparams()[static_cast<std::size_t>(r.param_index)]
        .param->grad[r.weight_index];
  }
  /// grad * delta_w from first principles: XOR the bit of the two's-
  /// complement code and take the dequantized difference.
  double score(const nn::WeightBitRef& r) const {
    const std::int8_t c = code(r);
    const auto flipped = static_cast<std::int8_t>(
        static_cast<std::uint8_t>(c) ^ static_cast<std::uint8_t>(1u << r.bit));
    const float scale =
        qm->qparams()[static_cast<std::size_t>(r.param_index)].qr.scale;
    return static_cast<double>(grad(r)) *
           (static_cast<float>(static_cast<int>(flipped) - c) * scale);
  }
  bool bit_is_set(const nn::WeightBitRef& r) const {
    return (static_cast<std::uint8_t>(code(r)) >> r.bit) & 1u;
  }
};

struct Oracle {
  std::vector<Candidate> ranked;  ///< every admissible candidate, in rank order
  std::int64_t evaluated = 0;
};

/// Brute force: enumerate, filter (direction, exclusion, score > 0), sort.
Oracle brute_force(const ToyVictim& v, const std::vector<FeasibleBit>* feasible,
                   const std::vector<std::int64_t>& excluded) {
  Oracle o;
  const auto is_excluded = [&](const nn::WeightBitRef& r) {
    return std::find(excluded.begin(), excluded.end(), pack_ref(r)) !=
           excluded.end();
  };
  const auto consider = [&](const nn::WeightBitRef& r) {
    if (is_excluded(r)) return;
    const double s = v.score(r);
    if (s > 0.0) o.ranked.push_back({r, pack_ref(r), s});
  };
  if (feasible == nullptr) {
    for (std::size_t l = 0; l < v.qm->num_qparams(); ++l) {
      for (std::int64_t i = 0; i < v.qm->qparams()[l].num_weights(); ++i) {
        for (int b = 0; b < 8; ++b) {
          const nn::WeightBitRef r{static_cast<int>(l), i, b};
          if (v.grad(r) == 0.0f) continue;
          if (!is_excluded(r)) ++o.evaluated;
          consider(r);
        }
      }
    }
  } else {
    for (const FeasibleBit& fb : *feasible) {
      if (!is_excluded(fb.ref)) ++o.evaluated;
      const bool zero_to_one = fb.direction == dram::FlipDirection::kZeroToOne;
      if (zero_to_one == v.bit_is_set(fb.ref)) continue;
      consider(fb.ref);
    }
  }
  std::sort(o.ranked.begin(), o.ranked.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.packed < b.packed;
            });
  return o;
}

void expect_sinks_match_oracle(const ToyVictim& v,
                               const std::vector<FeasibleBit>* feasible,
                               const std::vector<std::int64_t>& excluded,
                               const std::string& what) {
  const Oracle o = brute_force(v, feasible, excluded);

  telemetry::MetricsRegistry reg;
  telemetry::Counter& counter = reg.counter("attack.bits_evaluated");
  LayerTop1Sink per_layer(v.qm->num_qparams());
  EXPECT_EQ(score_candidates(*v.qm, feasible, excluded, per_layer, &counter),
            o.evaluated)
      << what;
  EXPECT_EQ(counter.value(), o.evaluated) << what;
  for (std::size_t l = 0; l < v.qm->num_qparams(); ++l) {
    const auto it = std::find_if(
        o.ranked.begin(), o.ranked.end(), [&](const Candidate& c) {
          return c.ref.param_index == static_cast<int>(l);
        });
    ASSERT_EQ(per_layer.has(l), it != o.ranked.end()) << what << " layer " << l;
    if (!per_layer.has(l)) continue;
    EXPECT_EQ(per_layer.best(l).packed, it->packed) << what << " layer " << l;
    EXPECT_EQ(per_layer.best(l).score, it->score) << what << " layer " << l;
  }

  for (const std::size_t k : {std::size_t{1}, std::size_t{4}, std::size_t{9}}) {
    TopKSink top(k);
    (void)score_candidates(*v.qm, feasible, excluded, top);
    const std::size_t want = std::min(k, o.ranked.size());
    ASSERT_EQ(top.top().size(), want) << what << " k=" << k;
    for (std::size_t i = 0; i < want; ++i) {
      EXPECT_EQ(top.top()[i].packed, o.ranked[i].packed)
          << what << " k=" << k << " rank " << i;
      EXPECT_EQ(top.top()[i].score, o.ranked[i].score)
          << what << " k=" << k << " rank " << i;
    }
  }
}

TEST(CandidateScorer, SinksMatchBruteForceOnRandomToyModels) {
  Rng rng(77);
  int ties_seen = 0;
  for (int trial = 0; trial < 24; ++trial) {
    ToyVictim v(rng, /*zero_layer=*/trial % 4 == 0 ? trial % 3 : -1);
    const std::string what = "trial " + std::to_string(trial);

    // Unconstrained, with a few committed bits excluded.
    std::vector<std::int64_t> excluded;
    const Oracle full = brute_force(v, nullptr, {});
    for (std::size_t i = 0; i < full.ranked.size(); i += 7)
      excluded.push_back(full.ranked[i].packed);
    std::sort(excluded.begin(), excluded.end());
    expect_sinks_match_oracle(v, nullptr, {}, what + " unconstrained");
    expect_sinks_match_oracle(v, nullptr, excluded,
                              what + " unconstrained+excluded");
    for (std::size_t i = 1; i < full.ranked.size(); ++i)
      if (full.ranked[i].score == full.ranked[i - 1].score) ++ties_seen;

    // Profile-aware: a random feasible list in image order, random
    // directions, except that the best bit ignoring direction is blocked.
    std::vector<FeasibleBit> feasible;
    for (std::size_t l = 0; l < v.qm->num_qparams(); ++l)
      for (std::int64_t i = 0; i < v.qm->qparams()[l].num_weights(); ++i)
        for (int b = 0; b < 8; ++b) {
          if (!rng.bernoulli(0.4)) continue;
          FeasibleBit fb;
          fb.ref = {static_cast<int>(l), i, b};
          fb.direction = rng.bernoulli(0.5) ? dram::FlipDirection::kZeroToOne
                                            : dram::FlipDirection::kOneToZero;
          feasible.push_back(fb);
        }
    FeasibleBit* strongest = nullptr;
    for (FeasibleBit& fb : feasible)
      if (v.score(fb.ref) > 0.0 &&
          (!strongest || v.score(fb.ref) > v.score(strongest->ref)))
        strongest = &fb;
    ASSERT_NE(strongest, nullptr) << what;
    strongest->direction = v.bit_is_set(strongest->ref)
                               ? dram::FlipDirection::kZeroToOne
                               : dram::FlipDirection::kOneToZero;
    const std::int64_t blocked = pack_ref(strongest->ref);

    std::vector<std::int64_t> committed;
    for (std::size_t i = 0; i < feasible.size(); i += 5)
      committed.push_back(pack_ref(feasible[i].ref));
    std::sort(committed.begin(), committed.end());
    expect_sinks_match_oracle(v, &feasible, {}, what + " feasible");
    expect_sinks_match_oracle(v, &feasible, committed,
                              what + " feasible+excluded");

    TopKSink top(feasible.size());
    (void)score_candidates(*v.qm, &feasible, {}, top);
    for (const Candidate& c : top.top())
      EXPECT_NE(c.packed, blocked) << what << ": direction filter bypassed";

    // The rank is a total order, so scan order cannot matter.
    rng.shuffle(feasible);
    expect_sinks_match_oracle(v, &feasible, committed,
                              what + " shuffled feasible");
  }
  EXPECT_GT(ties_seen, 0) << "fixture produced no exact score ties";
}

TEST(CandidateScorer, ExcludedTopCandidateYieldsTheRunnerUp) {
  Rng rng(5);
  const ToyVictim v(rng, /*zero_layer=*/-1);
  const Oracle o = brute_force(v, nullptr, {});
  ASSERT_GE(o.ranked.size(), 2u);
  const Candidate& first = o.ranked[0];
  const auto same_layer = std::find_if(
      o.ranked.begin() + 1, o.ranked.end(), [&](const Candidate& c) {
        return c.ref.param_index == first.ref.param_index;
      });
  ASSERT_NE(same_layer, o.ranked.end());

  const std::vector<std::int64_t> excluded{first.packed};
  LayerTop1Sink per_layer(v.qm->num_qparams());
  (void)score_candidates(*v.qm, nullptr, excluded, per_layer);
  const auto layer = static_cast<std::size_t>(first.ref.param_index);
  ASSERT_TRUE(per_layer.has(layer));
  EXPECT_EQ(per_layer.best(layer).packed, same_layer->packed);

  TopKSink top(1);
  (void)score_candidates(*v.qm, nullptr, excluded, top);
  ASSERT_EQ(top.top().size(), 1u);
  EXPECT_EQ(top.top()[0].packed, o.ranked[1].packed);
}

// ---------------------------------------------------------------------
// SuffixEvaluator vs. full forwards, on every model family in the zoo
// ---------------------------------------------------------------------

void expect_bitwise(const nn::Tensor& a, const nn::Tensor& b,
                    const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.cdata(), b.cdata(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

class SuffixEvaluatorTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    const auto zoo = models::model_zoo();
    const models::ModelSpec& spec = models::find_model(zoo, GetParam());
    Rng rng(5);
    model_ = spec.factory(rng);
    model_->set_training(false);
    qm_ = std::make_unique<nn::QuantizedModel>(*model_);
    seq_ = dynamic_cast<nn::Sequential*>(model_.get());
    ASSERT_NE(seq_, nullptr) << spec.name << " is not a flat Sequential";
    data_ = models::make_dataset(spec.dataset);
    batch_ = data::gather_inputs(data_.test, {0, 1, 2});
  }

  int last_param() const { return static_cast<int>(qm_->num_qparams()) - 1; }

  std::unique_ptr<nn::Module> model_;
  std::unique_ptr<nn::QuantizedModel> qm_;
  nn::Sequential* seq_ = nullptr;
  data::SplitDataset data_;
  nn::Tensor batch_;
};

// Replay must reproduce a full forward bitwise on every kernel backend,
// including after a flip in the replayed suffix — exactly the situation
// the searches depend on.
TEST_P(SuffixEvaluatorTest, ReplayMatchesFullForwardBitwise) {
  namespace k = nn::kernels;
  const k::Backend saved = k::active_backend();
  for (const k::Backend b : {k::Backend::kNaive, k::Backend::kPortable,
                             k::Backend::kAvx2, k::Backend::kVnni}) {
    if (!k::backend_available(b)) continue;
    k::set_backend(b);
    const std::string what = std::string(GetParam()) + " " + k::backend_name(b);
    SuffixEvaluator ev(*qm_, /*incremental=*/true);
    ASSERT_TRUE(ev.replays()) << what;
    const nn::Tensor y_full = ev.forward(batch_);
    for (const std::size_t start : {std::size_t{0}, seq_->size() / 2})
      expect_bitwise(ev.try_from(start), y_full,
                     what + " start=" + std::to_string(start));

    const nn::WeightBitRef flip{last_param(), 0, 5};
    (void)qm_->apply_bit_flip(flip);
    const nn::Tensor y_suffix = ev.try_from(ev.child_of(flip.param_index));
    expect_bitwise(y_suffix, model_->forward(batch_), what + " after flip");
    (void)qm_->apply_bit_flip(flip);
  }
  k::set_backend(saved);
}

TEST_P(SuffixEvaluatorTest, TryFromLeavesTheRecordUnchanged) {
  SuffixEvaluator ev(*qm_, /*incremental=*/true);
  const nn::Tensor y0 = ev.forward(batch_);
  const nn::WeightBitRef flip{0, 0, 6};
  const std::size_t c = ev.child_of(flip.param_index);
  (void)qm_->apply_bit_flip(flip);
  const nn::Tensor y_flipped = ev.try_from(c);
  (void)qm_->apply_bit_flip(flip);
  ASSERT_NE(std::memcmp(y0.cdata(), y_flipped.cdata(),
                        static_cast<std::size_t>(y0.numel()) * sizeof(float)),
            0)
      << "the flip must change the output, or this test proves nothing";
  // Had try_from refreshed the record, children after `c` would now start
  // from the flipped model's activations.  Last child first: a replay from
  // an earlier one would rewrite the later records before they are read.
  for (std::size_t start = seq_->size(); start-- > c;)
    expect_bitwise(ev.try_from(start), y0,
                   std::string(GetParam()) + " start=" + std::to_string(start));
}

TEST_P(SuffixEvaluatorTest, CommitsInRandomChildOrderMatchAFreshForward) {
  SuffixEvaluator ev(*qm_, /*incremental=*/true);
  (void)ev.forward(batch_);
  std::vector<int> params(qm_->num_qparams());
  for (std::size_t l = 0; l < params.size(); ++l)
    params[l] = static_cast<int>(l);
  Rng rng(41);
  rng.shuffle(params);
  params.resize(std::min<std::size_t>(params.size(), 6));
  std::vector<nn::WeightBitRef> applied;
  for (const int l : params) {
    const auto& qp = qm_->qparams()[static_cast<std::size_t>(l)];
    const nn::WeightBitRef flip{
        l,
        static_cast<std::int64_t>(
            rng.uniform_u64(static_cast<std::uint64_t>(qp.num_weights()))),
        static_cast<int>(rng.uniform_u64(4))};
    (void)qm_->apply_bit_flip(flip);
    applied.push_back(flip);
    const nn::Tensor y = ev.commit_from(ev.child_of(l));
    expect_bitwise(y, model_->forward(batch_),
                   std::string(GetParam()) + " after flip in param " +
                       std::to_string(l));
  }
  for (const auto& flip : applied) (void)qm_->apply_bit_flip(flip);
}

TEST_P(SuffixEvaluatorTest, FullForwardModeMatchesBatchLossAndSubsetAccuracy) {
  const std::vector<int> labels = data::gather_labels(data_.test, {0, 1, 2});
  // 160 samples: subset_accuracy runs them as chunks of 128 and 32, the
  // evaluator as one batch.
  const std::vector<int> idx = strided_eval_indices(160, data_.test.size());
  const nn::Tensor eval_x = data::gather_inputs(data_.test, idx);
  const std::vector<int> eval_y = data::gather_labels(data_.test, idx);
  const nn::WeightBitRef flip{last_param(), 1, 4};
  for (const bool int8 : {false, true}) {
    const std::string what =
        std::string(GetParam()) + (int8 ? " int8" : " float");
    qm_->set_int8_execution(int8);
    telemetry::MetricsRegistry reg;
    telemetry::Counter& passes = reg.counter("attack.forward_passes");
    telemetry::Counter& suffix = reg.counter("attack.suffix_forward_passes");
    nn::CrossEntropyLoss ce;

    SuffixEvaluator loss_ev(*qm_, /*incremental=*/false, &passes, &suffix);
    EXPECT_FALSE(loss_ev.replays()) << what;
    EXPECT_EQ(ce.forward(loss_ev.forward(batch_), labels),
              batch_loss(*model_, batch_, labels))
        << what;
    SuffixEvaluator acc_ev(*qm_, /*incremental=*/false, &passes, &suffix);
    EXPECT_EQ(accuracy_of(acc_ev.forward(eval_x), eval_y),
              subset_accuracy(*model_, data_.test, idx))
        << what;

    (void)qm_->apply_bit_flip(flip);
    EXPECT_EQ(ce.forward(loss_ev.try_from(loss_ev.child_of(flip.param_index)),
                         labels),
              batch_loss(*model_, batch_, labels))
        << what << " after flip";
    EXPECT_EQ(accuracy_of(acc_ev.commit_from(acc_ev.child_of(
                              flip.param_index)),
                          eval_y),
              subset_accuracy(*model_, data_.test, idx))
        << what << " after flip";
    (void)qm_->apply_bit_flip(flip);

    EXPECT_EQ(passes.value(), 4) << what;
    EXPECT_EQ(suffix.value(), 0) << what;
  }
  qm_->set_int8_execution(false);
}

INSTANTIATE_TEST_SUITE_P(ZooFamilies, SuffixEvaluatorTest,
                         ::testing::Values("ResNet-20", "DeiT-T", "VMamba-T",
                                           "M11"),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& ch : s)
                             if (ch == '-') ch = '_';
                           return s;
                         });

}  // namespace
}  // namespace rowpress::attack
