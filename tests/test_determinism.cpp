// Reproducibility guarantees: every stochastic stage (chip instance,
// dataset, training, mapping, attack) is a pure function of its seed.
// The paper's protocol averages over "random attack initialization"; that
// is only meaningful if runs are exactly replayable per seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "attack/runner.h"
#include "common/crc32.h"
#include "data/vision_synth.h"
#include "exp/experiment.h"
#include "models/resnet.h"
#include "models/zoo.h"
#include "nn/kernels/kernels.h"
#include "nn/kernels/qgemm.h"
#include "nn/quant/qmodel.h"
#include "profile/profiler.h"
#include "search/runner.h"
#include "test_util.h"

namespace rowpress {
namespace {

class DeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::VisionSynthConfig cfg;
    cfg.num_classes = 4;
    cfg.train_per_class = 50;
    cfg.test_per_class = 25;
    data_ = new data::SplitDataset(data::make_vision_dataset(cfg));

    spec_ = new models::ModelSpec();
    spec_->name = "resnet20-mini-test";
    spec_->dataset = models::DatasetKind::kVision10;  // unused directly
    spec_->factory = [](Rng& rng) {
      return models::make_resnet_cifar(20, 1, 4, 4, rng);
    };
    // 6 epochs: the quantized 1-epoch model sits ~1 flip above random
    // guess, which would make the bnb determinism check below vacuous
    // (the search prunes everything against a 1-flip incumbent).
    spec_->recipe = {.epochs = 6, .batch_size = 32, .lr = 2e-3,
                     .weight_decay = 1e-4};

    Rng rng(3);
    auto model = spec_->factory(rng);
    (void)exp::train_classifier(*model, *data_, spec_->recipe, rng);
    state_ = new nn::ModelState(nn::snapshot_state(*model));

    device_ = new dram::Device(testutil::small_device_config(5));
    profile::Profiler profiler;
    profile_ = new profile::BitFlipProfile(
        profiler.profile_rowpress(*device_));
  }
  static void TearDownTestSuite() {
    delete profile_;
    delete device_;
    delete state_;
    delete spec_;
    delete data_;
    profile_ = nullptr;
    device_ = nullptr;
    state_ = nullptr;
    spec_ = nullptr;
    data_ = nullptr;
  }

  static attack::AttackResult run_once(std::uint64_t seed,
                                       bool incremental = true,
                                       bool int8_eval = false) {
    attack::AttackRunSetup setup;
    setup.seed = seed;
    setup.bfa.max_flips = 10;
    setup.bfa.eval_samples = 100;
    setup.bfa.incremental_eval = incremental;
    setup.bfa.int8_eval = int8_eval;
    data::SplitDataset split;
    split.train = data_->train;
    split.test = data_->test;
    return attack::run_profile_attack(*spec_, *state_, split, *profile_,
                                      device_->geometry(), setup);
  }

  static attack::AttackResult run_bnb(std::uint64_t seed, int threads,
                                      bool incremental,
                                      search::SearchStats* stats = nullptr) {
    search::SearchRunSetup setup;
    setup.base.seed = seed;
    setup.base.bfa.max_flips = 10;
    setup.base.bfa.eval_samples = 100;
    setup.base.bfa.incremental_eval = incremental;
    setup.config.kind = search::SearchKind::kBranchAndBound;
    setup.config.threads = threads;
    setup.config.max_nodes = 32;
    setup.config.branch = 4;
    setup.config.expand_batch = 4;
    return search::run_profile_attack(*spec_, *state_, *data_, *profile_,
                                      device_->geometry(), setup, stats);
  }

  static attack::AttackResult run_unconstrained(std::uint64_t seed) {
    attack::AttackRunSetup setup;
    setup.seed = seed;
    setup.bfa.max_flips = 10;
    setup.bfa.eval_samples = 100;
    return attack::run_unconstrained_attack(*spec_, *state_, *data_, setup);
  }

  static data::SplitDataset* data_;
  static models::ModelSpec* spec_;
  static nn::ModelState* state_;
  static dram::Device* device_;
  static profile::BitFlipProfile* profile_;
};

data::SplitDataset* DeterminismTest::data_ = nullptr;
models::ModelSpec* DeterminismTest::spec_ = nullptr;
nn::ModelState* DeterminismTest::state_ = nullptr;
dram::Device* DeterminismTest::device_ = nullptr;
profile::BitFlipProfile* DeterminismTest::profile_ = nullptr;

TEST_F(DeterminismTest, SameSeedReplaysTheExactFlipSequence) {
  const auto a = run_once(42);
  const auto b = run_once(42);
  ASSERT_EQ(a.flips.size(), b.flips.size());
  EXPECT_EQ(a.candidate_pool_size, b.candidate_pool_size);
  EXPECT_DOUBLE_EQ(a.accuracy_before, b.accuracy_before);
  EXPECT_DOUBLE_EQ(a.accuracy_after, b.accuracy_after);
  for (std::size_t i = 0; i < a.flips.size(); ++i) {
    EXPECT_EQ(a.flips[i].ref, b.flips[i].ref);
    EXPECT_FLOAT_EQ(a.flips[i].weight_delta, b.flips[i].weight_delta);
    EXPECT_DOUBLE_EQ(a.flips[i].accuracy_after, b.flips[i].accuracy_after);
  }
}

// The GEMM backends and the incremental candidate evaluation are part of
// the reproducibility contract: switching either must not change a single
// flip, loss, or accuracy bit (committed campaign artifacts depend on it).
TEST_F(DeterminismTest, KernelBackendsAndIncrementalEvalAreBitIdentical) {
  namespace k = nn::kernels;
  const auto base = run_once(42);
  auto expect_same = [&](const attack::AttackResult& r, const char* what) {
    ASSERT_EQ(r.flips.size(), base.flips.size()) << what;
    EXPECT_EQ(r.candidate_pool_size, base.candidate_pool_size) << what;
    EXPECT_EQ(r.accuracy_before, base.accuracy_before) << what;
    EXPECT_EQ(r.accuracy_after, base.accuracy_after) << what;
    for (std::size_t i = 0; i < base.flips.size(); ++i) {
      EXPECT_EQ(r.flips[i].ref, base.flips[i].ref) << what << " flip " << i;
      EXPECT_EQ(r.flips[i].weight_delta, base.flips[i].weight_delta)
          << what << " flip " << i;
      EXPECT_EQ(r.flips[i].loss_after, base.flips[i].loss_after)
          << what << " flip " << i;
      EXPECT_EQ(r.flips[i].accuracy_after, base.flips[i].accuracy_after)
          << what << " flip " << i;
    }
  };

  const k::Backend saved = k::active_backend();
  for (const k::Backend b :
       {k::Backend::kNaive, k::Backend::kPortable, k::Backend::kAvx2,
        k::Backend::kVnni}) {
    if (!k::backend_available(b)) continue;
    k::set_backend(b);
    expect_same(run_once(42), k::backend_name(b));
  }
  k::set_backend(saved);
  expect_same(run_once(42, /*incremental=*/false), "full-forward eval");
}

// The int8 execution path carries a STRONGER contract than the float one:
// the kernels compute exact integer dot products, so every backend AND
// every intra-op thread count must reproduce the identical attack — same
// flips, same accuracy trajectory — bit for bit.  (The int8 attack may
// legitimately differ from the float-path attack; what is pinned here is
// that it never varies with how it is computed.)
TEST_F(DeterminismTest, Int8EvalIsBitIdenticalAcrossBackendsAndThreads) {
  namespace k = nn::kernels;
  const auto base = run_once(42, /*incremental=*/true, /*int8_eval=*/true);
  EXPECT_FALSE(base.flips.empty());

  auto expect_same = [&](const attack::AttackResult& r, const char* what) {
    ASSERT_EQ(r.flips.size(), base.flips.size()) << what;
    EXPECT_EQ(r.candidate_pool_size, base.candidate_pool_size) << what;
    EXPECT_EQ(r.accuracy_before, base.accuracy_before) << what;
    EXPECT_EQ(r.accuracy_after, base.accuracy_after) << what;
    for (std::size_t i = 0; i < base.flips.size(); ++i) {
      EXPECT_EQ(r.flips[i].ref, base.flips[i].ref) << what << " flip " << i;
      EXPECT_EQ(r.flips[i].weight_delta, base.flips[i].weight_delta)
          << what << " flip " << i;
      EXPECT_EQ(r.flips[i].loss_after, base.flips[i].loss_after)
          << what << " flip " << i;
      EXPECT_EQ(r.flips[i].accuracy_after, base.flips[i].accuracy_after)
          << what << " flip " << i;
    }
  };

  const k::Backend saved = k::active_backend();
  for (const k::Backend b :
       {k::Backend::kNaive, k::Backend::kPortable, k::Backend::kAvx2,
        k::Backend::kVnni}) {
    if (!k::backend_available(b)) continue;
    for (const int threads : {1, 2, 8}) {
      k::set_backend(b);
      k::set_gemm_threads(threads);
      const std::string what =
          std::string(k::backend_name(b)) + " x" + std::to_string(threads);
      expect_same(run_once(42, /*incremental=*/true, /*int8_eval=*/true),
                  what.c_str());
    }
  }
  k::set_gemm_threads(1);
  k::set_backend(saved);
}

// The branch-and-bound search extends the same contract: worker threads
// parallelize frontier expansion but may never change a single bit of the
// result, and neither may switching the candidate evaluator between
// incremental suffix replay and full forward passes.
TEST_F(DeterminismTest, BnbSearchIsBitIdenticalAcrossThreadsAndEvalModes) {
  search::SearchStats base_stats;
  const auto base = run_bnb(42, /*threads=*/1, /*incremental=*/true,
                            &base_stats);
  EXPECT_GT(base_stats.nodes_expanded, 0);  // the search actually explored

  auto expect_same = [&](const attack::AttackResult& r, const char* what) {
    ASSERT_EQ(r.flips.size(), base.flips.size()) << what;
    EXPECT_EQ(r.objective_reached, base.objective_reached) << what;
    EXPECT_EQ(r.accuracy_before, base.accuracy_before) << what;
    EXPECT_EQ(r.accuracy_after, base.accuracy_after) << what;
    for (std::size_t i = 0; i < base.flips.size(); ++i) {
      EXPECT_EQ(r.flips[i].ref, base.flips[i].ref) << what << " flip " << i;
      EXPECT_EQ(r.flips[i].weight_delta, base.flips[i].weight_delta)
          << what << " flip " << i;
      EXPECT_EQ(r.flips[i].loss_after, base.flips[i].loss_after)
          << what << " flip " << i;
      EXPECT_EQ(r.flips[i].accuracy_after, base.flips[i].accuracy_after)
          << what << " flip " << i;
    }
  };

  for (const int threads : {2, 8}) {
    search::SearchStats s;
    expect_same(run_bnb(42, threads, /*incremental=*/true, &s),
                threads == 2 ? "2 threads" : "8 threads");
    // The explored set itself — not just the final chain — is invariant.
    EXPECT_EQ(s.nodes_expanded, base_stats.nodes_expanded) << threads;
    EXPECT_EQ(s.nodes_pruned, base_stats.nodes_pruned) << threads;
    EXPECT_EQ(s.cache_hits, base_stats.cache_hits) << threads;
    EXPECT_EQ(s.rounds, base_stats.rounds) << threads;
    EXPECT_EQ(s.improved, base_stats.improved) << threads;
  }

  search::SearchStats full_stats;
  expect_same(run_bnb(42, /*threads=*/1, /*incremental=*/false, &full_stats),
              "full-forward eval");
  EXPECT_EQ(full_stats.nodes_expanded, base_stats.nodes_expanded);
}

// Golden chain pins: CRC32 digests (testutil::chain_crc) of the chains the
// greedy search (profile-aware float and int8, unconstrained) and the
// branch-and-bound search produce on this fixture.  Unlike the tests above,
// which compare two runs of one build, these compare against constants, so
// they pin a chain across code changes.  Recorded with the per-search
// candidate loops and the Sequential-owned activation capture that the
// shared scorer (attack/candidates.h) and SuffixEvaluator replaced, on the
// reference build environment (GCC 12.2, x86-64, Release -O3
// -march=native).
TEST_F(DeterminismTest, GreedyProfileFloatChainMatchesGolden) {
  const auto r = run_once(42);
  testutil::expect_chain_golden(r.flips, 7, 0x04FF123Du);
}

TEST_F(DeterminismTest, GreedyProfileInt8ChainMatchesGolden) {
  const auto r = run_once(42, /*incremental=*/true, /*int8_eval=*/true);
  testutil::expect_chain_golden(r.flips, 7, 0x7B00C939u);
}

TEST_F(DeterminismTest, GreedyUnconstrainedChainMatchesGolden) {
  const auto r = run_unconstrained(42);
  testutil::expect_chain_golden(r.flips, 4, 0x3CA34649u);
}

TEST_F(DeterminismTest, BnbTwoThreadChainMatchesGolden) {
  const auto r = run_bnb(42, /*threads=*/2, /*incremental=*/true);
  testutil::expect_chain_golden(r.flips, 5, 0xCC5DD6D3u);
}

// End-to-end pins of both inference paths: CRC32 of a model's logits at
// several batch sizes, on every backend and at 1 and 3 intra-op threads,
// once clean and once after sign-bit flips (so post-attack -128 codes flow
// through the same kernels).  Weights come from the factory's seeded init,
// quantized in place by QuantizedModel (the float path runs on the
// dequantized view the attacks flip); inputs come from a self-contained
// xorshift stream (exact binary fractions, no libm).
struct LogitsGolden {
  std::vector<std::uint32_t> clean, flipped;
};

void expect_logits_golden(nn::Module& model, const std::string& model_name,
                          std::vector<int> sample_shape, bool int8,
                          const std::vector<int>& batches,
                          const LogitsGolden& want) {
  namespace k = nn::kernels;
  model.set_training(false);
  nn::QuantizedModel qm(model);
  qm.set_int8_execution(int8);

  std::int64_t per_sample = 1;
  for (const int d : sample_shape) per_sample *= d;
  int max_batch = 0;
  for (const int b : batches) max_batch = std::max(max_batch, b);
  std::vector<float> inputs(static_cast<std::size_t>(max_batch * per_sample));
  std::uint32_t s = 0x9E3779B9u;
  for (auto& v : inputs) {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    v = static_cast<float>(static_cast<int>(s % 4096u) - 2048) / 1024.0f;
  }
  const auto all_crcs = [&] {
    std::vector<std::uint32_t> out;
    for (const int batch : batches) {
      std::vector<int> shape{batch};
      shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
      nn::Tensor x(shape);
      for (std::int64_t i = 0; i < x.numel(); ++i)
        x[i] = inputs[static_cast<std::size_t>(i)];
      const nn::Tensor y = model.forward(x);
      for (std::int64_t i = 0; i < y.numel(); ++i)
        EXPECT_TRUE(std::isfinite(y[i])) << model_name << " logit " << i;
      out.push_back(crc32(y.cdata(), static_cast<std::size_t>(y.numel()) *
                                         sizeof(float)));
    }
    return out;
  };
  const auto check_all = [&](const std::vector<std::uint32_t>& golden,
                             const char* what) {
    const k::Backend saved = k::active_backend();
    for (const k::Backend b :
         {k::Backend::kNaive, k::Backend::kPortable, k::Backend::kAvx2,
          k::Backend::kVnni}) {
      if (!k::backend_available(b)) continue;
      k::set_backend(b);
      for (const int threads : {1, 3}) {
        k::set_gemm_threads(threads);
        const auto got = all_crcs();
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i], golden[i])
              << model_name << " " << what << " " << k::backend_name(b)
              << " x" << threads << " batch case " << i << std::hex
              << " got 0x" << got[i];
        }
      }
    }
    k::set_gemm_threads(1);
    k::set_backend(saved);
  };
  check_all(want.clean, "clean");
  for (int p = 0; p < static_cast<int>(qm.num_qparams()); ++p)
    (void)qm.apply_bit_flip({p, 0, 7});
  check_all(want.flipped, "flipped");
}

std::unique_ptr<nn::Module> zoo_model(const char* name) {
  const auto zoo = models::model_zoo();
  Rng rng(2025);
  return models::find_model(zoo, name).factory(rng);
}

// ResNet-20 covers every Conv2d shape of the network (stem, stride-1 3x3,
// stride-2 3x3, 1x1 downsample) plus the int8 Linear head; M11 covers
// Conv1d.  The constants were recorded with the strip-im2col conv path
// (per-patch quantize_rows, then qgemm_wgt_act_batched, then requantize)
// that the fused conv kernels replaced, on the reference build environment
// (GCC 12.2, x86-64, Release -O3 -march=native).
const std::vector<int> kInt8Batches{1, 3, 8, 16};

TEST(Int8LogitsGolden, ResNet20MatchesCommittedCrcs) {
  expect_logits_golden(
      *zoo_model("ResNet-20"), "ResNet-20", {1, 12, 12}, /*int8=*/true,
      kInt8Batches,
      {{0xBC255EE6u, 0x1A760D5Bu, 0x984548C6u, 0x4FD36965u},
       {0x4B749F60u, 0x187E7036u, 0x8D3F2425u, 0x012CEA4Bu}});
}

TEST(Int8LogitsGolden, M11MatchesCommittedCrcs) {
  expect_logits_golden(
      *zoo_model("M11"), "M11", {1, 256}, /*int8=*/true, kInt8Batches,
      {{0x4A03E9A6u, 0x55AA99B7u, 0xEA930D8Bu, 0x2D768523u},
       {0xAE15F2EFu, 0xB88EEAC4u, 0x744E69BEu, 0xDDC62FEAu}});
}

// The float twin, at batch sizes 1, 3, 8 and 100 (the last is B&B's
// child-accuracy batch on the mini proxies).  ResNet20Mini is
// bench_search's ResNet-20-mini proxy, whose 3x3 stage-3 maps are the
// shapes the fused float conv's tiles fit worst.  The constants were
// recorded with the per-sample im2col + gemm_nn conv path that
// kernels::conv replaced, on the reference build environment; they also
// hold on its ASan+UBSan RelWithDebInfo build.
const std::vector<int> kFloatBatches{1, 3, 8, 100};

TEST(FloatLogitsGolden, ResNet20) {
  expect_logits_golden(
      *zoo_model("ResNet-20"), "ResNet-20", {1, 12, 12}, /*int8=*/false,
      kFloatBatches,
      {{0xEEBFBDA6u, 0x741C902Eu, 0x744A365Au, 0x73409729u},
       {0x9468640Au, 0x6E5248B6u, 0xF9EFDCA1u, 0xB0E127EBu}});
}

TEST(FloatLogitsGolden, M11) {
  expect_logits_golden(
      *zoo_model("M11"), "M11", {1, 256}, /*int8=*/false, kFloatBatches,
      {{0x7CB631DCu, 0x6BB3604Fu, 0xC0306B99u, 0xFE50F949u},
       {0xE2297011u, 0xBD885044u, 0x2F1F7B01u, 0x861E80FAu}});
}

TEST(FloatLogitsGolden, ResNet20Mini) {
  Rng rng(2025);
  expect_logits_golden(
      *models::make_resnet_cifar(20, 1, 4, 4, rng), "ResNet-20-mini",
      {1, 12, 12}, /*int8=*/false, kFloatBatches,
      {{0x34DA1B07u, 0xC8D2BCD8u, 0x321C1CA3u, 0xEC4DEE0Fu},
       {0xF99C94C9u, 0x68F45069u, 0x085E8C8Cu, 0x8CBA0AE9u}});
}

TEST_F(DeterminismTest, DifferentSeedsChangeTheMappingOrBatches) {
  const auto a = run_once(1);
  const auto b = run_once(2);
  // Different seeds change the weight placement (and hence the candidate
  // pool) or at minimum the flip sequence.
  const bool differs =
      a.candidate_pool_size != b.candidate_pool_size ||
      a.flips.size() != b.flips.size() ||
      (!a.flips.empty() && !b.flips.empty() &&
       !(a.flips[0].ref == b.flips[0].ref));
  EXPECT_TRUE(differs);
}

TEST_F(DeterminismTest, ChipInstancesAreSeedReproducible) {
  dram::Device d1(testutil::small_device_config(5));
  profile::Profiler profiler;
  const auto p1 = profiler.profile_rowpress(d1);
  EXPECT_EQ(p1.size(), profile_->size());
  EXPECT_EQ(p1.overlap(*profile_), p1.size());
}

TEST_F(DeterminismTest, TrainingIsSeedReproducible) {
  Rng rng_a(9), rng_b(9);
  auto ma = spec_->factory(rng_a);
  auto mb = spec_->factory(rng_b);
  (void)exp::train_classifier(*ma, *data_, spec_->recipe, rng_a);
  (void)exp::train_classifier(*mb, *data_, spec_->recipe, rng_b);
  const auto sa = nn::snapshot_state(*ma);
  const auto sb = nn::snapshot_state(*mb);
  ASSERT_EQ(sa.params.size(), sb.params.size());
  for (std::size_t i = 0; i < sa.params.size(); ++i)
    for (std::int64_t j = 0; j < sa.params[i].numel(); ++j)
      ASSERT_EQ(sa.params[i][j], sb.params[i][j]) << "param " << i;
}

}  // namespace
}  // namespace rowpress
