#include "attack/ecc_aware.h"

#include <set>

#include <gtest/gtest.h>

#include "data/vision_synth.h"
#include "exp/experiment.h"
#include "models/resnet.h"
#include "test_util.h"

namespace rowpress::attack {
namespace {

class EccAttackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new data::SplitDataset(
        data::make_vision_dataset(data::vision10_config()));
    Rng rng(21);
    model_ = new std::unique_ptr<nn::Module>(
        models::make_resnet_cifar(20, 1, 10, 6, rng));
    models::TrainRecipe recipe{.epochs = 3, .batch_size = 32, .lr = 2e-3,
                               .weight_decay = 1e-4};
    const auto stats = exp::train_classifier(**model_, *data_, recipe, rng);
    ASSERT_GT(stats.test_accuracy, 0.6);
    state_ = new nn::ModelState(nn::snapshot_state(**model_));
  }
  static void TearDownTestSuite() {
    delete state_;
    delete model_;
    delete data_;
    state_ = nullptr;
    model_ = nullptr;
    data_ = nullptr;
  }
  void SetUp() override { nn::restore_state(**model_, *state_); }
  nn::Module& model() { return **model_; }

  static std::vector<FeasibleBit> make_feasible(nn::QuantizedModel& qm,
                                                double density,
                                                std::uint64_t seed) {
    std::vector<FeasibleBit> out;
    Rng frng(seed);
    const std::int64_t bits = qm.total_weight_bytes() * 8;
    for (std::int64_t b = 0; b < bits; ++b) {
      if (!frng.bernoulli(density)) continue;
      FeasibleBit fb;
      fb.ref = qm.bit_ref_from_image_offset(b);
      fb.linear_bit = b;
      fb.direction = frng.bernoulli(0.5) ? dram::FlipDirection::kZeroToOne
                                         : dram::FlipDirection::kOneToZero;
      out.push_back(fb);
    }
    return out;
  }

  static data::SplitDataset* data_;
  static std::unique_ptr<nn::Module>* model_;
  static nn::ModelState* state_;
};

data::SplitDataset* EccAttackTest::data_ = nullptr;
std::unique_ptr<nn::Module>* EccAttackTest::model_ = nullptr;
nn::ModelState* EccAttackTest::state_ = nullptr;

TEST_F(EccAttackTest, CommitsWholeWordsOfThreeColocatedFlips) {
  nn::QuantizedModel qm(model());
  const auto feasible = make_feasible(qm, 0.06, 31);
  Rng rng(1);
  EccAwareConfig cfg;
  cfg.max_words = 12;
  EccAwareAttack attack(cfg, rng);
  const auto r = attack.run(qm, feasible, data_->test, data_->test);

  ASSERT_GT(r.words_attacked, 0);
  EXPECT_EQ(r.flips.size(),
            static_cast<std::size_t>(r.words_attacked) * 3);
  EXPECT_GT(r.exploitable_words, 0);

  // Every consecutive group of three flips must share one 64-bit word and
  // use three distinct bits.
  for (std::size_t g = 0; g + 2 < r.flips.size(); g += 3) {
    std::set<std::int64_t> words, bits;
    for (int k = 0; k < 3; ++k) {
      const std::int64_t image_bit =
          qm.image_bit_offset(r.flips[g + static_cast<std::size_t>(k)].ref);
      words.insert(image_bit / 64);
      bits.insert(image_bit);
    }
    EXPECT_EQ(words.size(), 1u);
    EXPECT_EQ(bits.size(), 3u);
  }
}

// Golden chain pin (see DeterminismTest's pins): CRC32 of the word chain
// one ECC-aware run commits.  Recorded with the attack's own candidate
// loop, before it moved onto the shared scorer and SuffixEvaluator, on the
// reference build environment (GCC 12.2, x86-64, Release -O3
// -march=native).
TEST_F(EccAttackTest, ChainMatchesGolden) {
  nn::QuantizedModel qm(model());
  const auto feasible = make_feasible(qm, 0.06, 31);
  Rng rng(5);
  EccAwareConfig cfg;
  cfg.max_words = 12;
  EccAwareAttack attack(cfg, rng);
  const auto r = attack.run(qm, feasible, data_->test, data_->test);
  testutil::expect_chain_golden(r.flips, 36, 0xE4C3A201u);
}

TEST_F(EccAttackTest, NoExploitableWordsMeansNoAttack) {
  nn::QuantizedModel qm(model());
  // Ultra-sparse profile: words with 3 co-located candidates are
  // essentially nonexistent.
  const auto feasible = make_feasible(qm, 0.0005, 32);
  Rng rng(2);
  EccAwareAttack attack(EccAwareConfig{}, rng);
  const auto r = attack.run(qm, feasible, data_->test, data_->test);
  EXPECT_EQ(r.exploitable_words, 0);
  EXPECT_EQ(r.words_attacked, 0);
  EXPECT_FALSE(r.objective_reached);
}

TEST_F(EccAttackTest, WordBudgetHonored) {
  nn::QuantizedModel qm(model());
  const auto feasible = make_feasible(qm, 0.06, 33);
  Rng rng(3);
  EccAwareConfig cfg;
  cfg.max_words = 2;
  EccAwareAttack attack(cfg, rng);
  const auto r = attack.run(qm, feasible, data_->test, data_->test);
  EXPECT_LE(r.words_attacked, 2);
  EXPECT_LE(r.flips.size(), 6u);
}

TEST_F(EccAttackTest, DenseProfileDegradesAccuracySubstantially) {
  nn::QuantizedModel qm(model());
  const auto feasible = make_feasible(qm, 0.08, 34);
  Rng rng(4);
  EccAwareConfig cfg;
  cfg.max_words = 120;
  EccAwareAttack attack(cfg, rng);
  const auto r = attack.run(qm, feasible, data_->test, data_->test);
  EXPECT_LT(r.accuracy_after, r.accuracy_before - 0.3);
}

}  // namespace
}  // namespace rowpress::attack
