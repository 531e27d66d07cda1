#include "uncertainty/mc_dropout.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "tensor/buffer.h"
#include "tensor/simd/dispatch.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "pass_reference.h"

namespace tasfar {
namespace {

std::unique_ptr<Sequential> DropoutModel(Rng* rng) {
  auto m = std::make_unique<Sequential>();
  m->Emplace<Dense>(2, 16, rng);
  m->Emplace<Relu>();
  m->Emplace<Dropout>(0.2, rng->NextU64());
  m->Emplace<Dense>(16, 1, rng);
  return m;
}

TEST(McPredictionTest, ScalarUncertaintyIsL2OfStds) {
  McPrediction p;
  p.std = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(p.ScalarUncertainty(), 5.0);
  McPrediction q;
  q.std = {2.0};
  EXPECT_DOUBLE_EQ(q.ScalarUncertainty(), 2.0);
}

TEST(McDropoutTest, PredictsPerSample) {
  Rng rng(1);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 10);
  Tensor x = Tensor::RandomNormal({7, 2}, &rng);
  auto preds = predictor.Predict(x);
  ASSERT_EQ(preds.size(), 7u);
  for (const auto& p : preds) {
    EXPECT_EQ(p.mean.size(), 1u);
    EXPECT_EQ(p.std.size(), 1u);
    EXPECT_GE(p.std[0], 0.0);
  }
}

TEST(McDropoutTest, DropoutProducesNonzeroUncertainty) {
  Rng rng(2);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 20);
  Tensor x = Tensor::RandomNormal({20, 2}, &rng, 0.0, 2.0);
  auto preds = predictor.Predict(x);
  double total_std = 0.0;
  for (const auto& p : preds) total_std += p.std[0];
  EXPECT_GT(total_std, 0.0);
}

TEST(McDropoutTest, NoDropoutMeansZeroUncertainty) {
  Rng rng(3);
  Sequential model;
  model.Emplace<Dense>(2, 4, &rng);
  model.Emplace<Relu>();
  model.Emplace<Dense>(4, 1, &rng);
  McDropoutPredictor predictor(&model, 5);
  Tensor x = Tensor::RandomNormal({5, 2}, &rng);
  for (const auto& p : predictor.Predict(x)) {
    EXPECT_NEAR(p.std[0], 0.0, 1e-6);  // FP round-off in sum-of-squares.
  }
}

TEST(McDropoutTest, MeanApproximatesDeterministicPrediction) {
  Rng rng(4);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 200);
  Tensor x = Tensor::RandomNormal({5, 2}, &rng);
  auto preds = predictor.Predict(x);
  Tensor det = BatchedForward(model.get(), x);
  for (size_t i = 0; i < preds.size(); ++i) {
    // MC mean is an unbiased estimate of the dropout-expected output; for
    // this near-linear head it lands close to the deterministic pass.
    EXPECT_NEAR(preds[i].mean[0], det.At(i, 0),
                5.0 * preds[i].std[0] / std::sqrt(200.0) + 0.05);
  }
}

TEST(McDropoutTest, MultiOutputStdsPerDim) {
  Rng rng(5);
  Sequential model;
  model.Emplace<Dense>(3, 8, &rng);
  model.Emplace<Dropout>(0.5, 99);
  model.Emplace<Dense>(8, 2, &rng);
  McDropoutPredictor predictor(&model, 15);
  Tensor x = Tensor::RandomNormal({4, 3}, &rng);
  auto preds = predictor.Predict(x);
  for (const auto& p : preds) {
    EXPECT_EQ(p.mean.size(), 2u);
    EXPECT_EQ(p.std.size(), 2u);
  }
}

TEST(McDropoutTest, LargerInputsLargerUncertainty) {
  // Dropout noise scales with activation magnitude, the property the
  // confidence classifier leans on (far-from-distribution inputs excite
  // larger activations and thus larger predictive variance).
  Rng rng(6);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 50);
  Tensor small = Tensor::RandomNormal({30, 2}, &rng, 0.0, 0.1);
  Tensor large = Tensor::RandomNormal({30, 2}, &rng, 0.0, 5.0);
  auto preds_small = predictor.Predict(small);
  auto preds_large = predictor.Predict(large);
  double u_small = 0.0, u_large = 0.0;
  for (const auto& p : preds_small) u_small += p.ScalarUncertainty();
  for (const auto& p : preds_large) u_large += p.ScalarUncertainty();
  EXPECT_GT(u_large, u_small);
}

TEST(McDropoutTest, EmptyInputReturnsEmpty) {
  Rng rng(20);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 5);
  Tensor empty({0, 2});
  EXPECT_TRUE(predictor.Predict(empty).empty());
}

TEST(McDropoutTest, RowsBelowBatchSizeAreAllPredicted) {
  // Regression: n < batch_size must forward one short batch, not drop or
  // pad rows.
  Rng rng(21);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 5, /*batch_size=*/64);
  Tensor x = Tensor::RandomNormal({3, 2}, &rng);
  auto preds = predictor.Predict(x);
  ASSERT_EQ(preds.size(), 3u);
  for (const auto& p : preds) EXPECT_TRUE(std::isfinite(p.mean[0]));
}

TEST(McDropoutTest, BatchSizeDoesNotChangeResults) {
  // Regression: n % batch_size != 0 leaves a trailing partial batch; the
  // split must be invisible in the outputs (same seed ⇒ same predictions
  // whatever the batch size, since dropout masks are drawn per pass, not
  // per batch-row-count — the model here is row-independent Dense/ReLU).
  Rng rng(22);
  Sequential model;
  model.Emplace<Dense>(2, 8, &rng);
  model.Emplace<Relu>();
  model.Emplace<Dense>(8, 1, &rng);
  Tensor x = Tensor::RandomNormal({13, 2}, &rng);
  McDropoutPredictor whole(&model, 5, /*batch_size=*/64);
  McDropoutPredictor split(&model, 5, /*batch_size=*/4);  // 13 = 3*4 + 1.
  auto a = whole.Predict(x);
  auto b = split.Predict(x);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].mean[0], b[i].mean[0], 1e-12);
  }
}

TEST(McDropoutTest, PredictIsByteIdenticalAtAnyThreadCount) {
  // The determinism contract of docs/THREADING.md: same root seed + same
  // call index ⇒ identical McPredictions at 1, 2, and 8 threads.
  auto run = [](size_t threads) {
    SetNumThreads(threads);
    Rng rng(23);
    auto model = DropoutModel(&rng);
    McDropoutPredictor predictor(model.get(), 20, 8, /*seed=*/0xfeedULL);
    Tensor x = Tensor::RandomNormal({37, 2}, &rng);
    auto first = predictor.Predict(x);
    auto second = predictor.Predict(x);  // Call #2 (distinct stream).
    SetNumThreads(0);
    return std::make_pair(first, second);
  };
  auto [a1, a2] = run(1);
  auto [b1, b2] = run(2);
  auto [c1, c2] = run(8);
  auto expect_identical = [](const std::vector<McPrediction>& x_preds,
                             const std::vector<McPrediction>& y_preds) {
    ASSERT_EQ(x_preds.size(), y_preds.size());
    for (size_t i = 0; i < x_preds.size(); ++i) {
      ASSERT_EQ(x_preds[i].mean.size(), y_preds[i].mean.size());
      for (size_t j = 0; j < x_preds[i].mean.size(); ++j) {
        // EXPECT_EQ (not NEAR): byte-identical is the contract.
        EXPECT_EQ(x_preds[i].mean[j], y_preds[i].mean[j]);
        EXPECT_EQ(x_preds[i].std[j], y_preds[i].std[j]);
      }
    }
  };
  expect_identical(a1, b1);
  expect_identical(a1, c1);
  expect_identical(a2, b2);
  expect_identical(a2, c2);
}

TEST(McDropoutTest, SuccessiveCallsDrawFreshDropoutEnsembles) {
  Rng rng(24);
  auto model = DropoutModel(&rng);
  McDropoutPredictor predictor(model.get(), 10);
  Tensor x = Tensor::RandomNormal({6, 2}, &rng, 0.0, 2.0);
  auto first = predictor.Predict(x);
  auto second = predictor.Predict(x);
  double diff = 0.0;
  for (size_t i = 0; i < first.size(); ++i) {
    diff += std::fabs(first[i].mean[0] - second[i].mean[0]);
  }
  EXPECT_GT(diff, 0.0);  // Distinct per-call streams.
}

TEST(McDropoutTest, PredictDoesNotMutateTheWrappedModel) {
  Rng rng(25);
  auto model = DropoutModel(&rng);
  Tensor x = Tensor::RandomNormal({5, 2}, &rng);
  Tensor before = model->Forward(x, /*training=*/false);
  McDropoutPredictor predictor(model.get(), 10);
  predictor.Predict(x);
  Tensor after = model->Forward(x, /*training=*/false);
  EXPECT_DOUBLE_EQ(before.MaxAbsDiff(after), 0.0);
}

TEST(McDropoutTest, PooledReplicasTrackModelWeightUpdates) {
  Rng rng(11);
  auto model = DropoutModel(&rng);
  Tensor x = Tensor::RandomNormal({5, 2}, &rng);
  McDropoutPredictor warm(model.get(), 10, 64, 0x5eedULL);
  (void)warm.Predict(x);  // Call index 0 — creates the lane replicas.

  // Fine-tune: mutate every parameter in place. Copy-on-write detaches the
  // model's buffers from the pooled replicas' shared views, so a replica
  // that skipped the checkout re-share would keep serving the old weights.
  for (Tensor* p : model->Params()) *p *= 1.5;

  auto pooled = warm.Predict(x);  // Call index 1, reused replicas.

  // A fresh predictor clones its replicas directly from the updated model;
  // its call-index-1 ensemble must match the pooled one byte for byte.
  McDropoutPredictor fresh(model.get(), 10, 64, 0x5eedULL);
  (void)fresh.Predict(x);  // Burn call index 0.
  auto expect = fresh.Predict(x);
  ASSERT_EQ(pooled.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(pooled[i].mean.size(), expect[i].mean.size());
    for (size_t j = 0; j < expect[i].mean.size(); ++j) {
      EXPECT_EQ(pooled[i].mean[j], expect[i].mean[j]);
      EXPECT_EQ(pooled[i].std[j], expect[i].std[j]);
    }
  }
}

TEST(McDropoutTest, TrunkReuseMatchesFullPasses) {
  // Predict runs the deterministic trunk once per call and only the layers
  // from the first stochastic one on per pass. The result must be the
  // bytes of the whole-model pass loop, at every thread count, wherever
  // the trunk ends and however the rows fill the batches. At 2 and 8
  // threads the heads run on the caller when 10 passes × rows × head
  // weights is under kParallelMinMadds, and fan out otherwise: tabular
  // (1201 head weights) and crowd (833) run 1 and 5 rows on the caller
  // and fan 19 out, as does tabular f32; pdr (20,674) fans every row
  // count out; dropout_first (50), branch_dropout (73) and no_dropout (0)
  // run every row count on the caller.
  constexpr size_t kPasses = 10;  // > kPassLanes: lanes hold two passes.
  constexpr size_t kBatch = 8;
  constexpr uint64_t kSeed = 0xfeedULL;
  auto seeds_of = [](uint64_t call) {
    std::vector<uint64_t> seeds;
    for (size_t s = 0; s < kPasses; ++s) {
      seeds.push_back(MixSeed(MixSeed(kSeed, call), s));
    }
    return seeds;
  };
  for (size_t threads : {1, 2, 8}) {
    SetNumThreads(threads);
    Rng rng(41);
    for (SplitCase& c : SplitCases(&rng)) {
      EXPECT_EQ(DeterministicTrunkLength(c.model.get()), c.trunk_layers)
          << c.name;
      // n = 1, n < batch, n not a multiple of batch.
      for (size_t rows : {1, 5, 19}) {
        const Tensor x = CaseInputs(c, rows, &rng);
        McDropoutPredictor predictor(c.model.get(), kPasses, kBatch, kSeed);
        for (uint64_t call = 0; call < 2; ++call) {
          const auto got = predictor.Predict(x);
          ExpectSameBytes(got,
                          WholeModelPasses(c.model.get(), x, kBatch,
                                           /*training=*/true, /*f32=*/false,
                                           seeds_of(call)),
                          c.name + " rows " + std::to_string(rows) +
                              " call " + std::to_string(call) + " threads " +
                              std::to_string(threads));
          if (c.trunk_layers == c.model->NumLayers()) {
            // Every pass gives the same bytes: the std is 0 up to the
            // rounding of E[x²] - m².
            for (const McPrediction& p : got) EXPECT_NEAR(p.std[0], 0.0, 1e-6);
          }
        }
      }
    }
    // Tabular in f32: the split goes through the layer-range ForwardF32.
    simd::SetComputeMode(simd::ComputeMode::kF32);
    SplitCase c = TabularCase(&rng);
    const Tensor x = CaseInputs(c, 19, &rng);
    McDropoutPredictor predictor(c.model.get(), kPasses, kBatch, kSeed);
    for (uint64_t call = 0; call < 2; ++call) {
      ExpectSameBytes(predictor.Predict(x),
                      WholeModelPasses(c.model.get(), x, kBatch,
                                       /*training=*/true, /*f32=*/true,
                                       seeds_of(call)),
                      "tabular f32 call " + std::to_string(call) +
                          " threads " + std::to_string(threads));
    }
    simd::SetComputeMode(simd::ComputeMode::kDouble);
  }
  SetNumThreads(0);
}

TEST(McDropoutTest, OneImagePredictRunsItsPassesOnTheCaller) {
  // A one-image crowd Predict does 20 × 1 × 833 head multiply-adds, under
  // kParallelMinMadds, so it opens no pool region: its trunk is one slice
  // of small convs, and its passes run on the caller. A 64-image call
  // (20 × 64 × 833) fans out. Both give the whole-model bytes.
  const bool metrics_were_on = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  SetNumThreads(4);
  const obs::Counter* regions =
      obs::Registry::Get().GetCounter("tasfar.thread_pool.regions");
  constexpr size_t kPasses = 20;
  constexpr size_t kBatch = 64;
  constexpr uint64_t kSeed = 0xc0deULL;
  std::vector<uint64_t> seeds;
  for (size_t s = 0; s < kPasses; ++s) {
    seeds.push_back(MixSeed(MixSeed(kSeed, 0), s));
  }
  Rng rng(45);
  SplitCase c = CrowdCase(&rng);
  for (size_t rows : {1, 64}) {
    const Tensor x = CaseInputs(c, rows, &rng);
    McDropoutPredictor predictor(c.model.get(), kPasses, kBatch, kSeed);
    const uint64_t before = regions->value();
    const auto got = predictor.Predict(x);
    const uint64_t opened = regions->value() - before;
    ExpectSameBytes(got,
                    WholeModelPasses(c.model.get(), x, kBatch,
                                     /*training=*/true, /*f32=*/false, seeds),
                    "crowd rows " + std::to_string(rows));
    if (rows == 1) {
      EXPECT_EQ(opened, 0u);
    } else {
      EXPECT_GE(opened, 1u);
    }
  }
  SetNumThreads(0);
  obs::SetMetricsEnabled(metrics_were_on);
}

TEST(McDropoutTest, SteadyStatePredictAllocatesNothing) {
  // Pass s runs on a replica and Workspace lane fixed by s, and the
  // trunk's run r of slices on a Workspace fixed by r (docs/MEMORY.md):
  // once warm, Predict allocates no tensor buffer, however the pool hands
  // the runs and passes to workers.
  for (size_t threads : {1, 2, 4, 8}) {
    SetNumThreads(threads);
    Rng rng(42);
    for (const auto& make :
         std::vector<std::function<SplitCase(Rng*)>>{TabularCase,
                                                     CrowdCase}) {
      SplitCase c = make(&rng);
      McDropoutPredictor predictor(c.model.get(), 20, /*batch_size=*/8);
      const Tensor x = CaseInputs(c, 19, &rng);  // Three slices.
      for (int warm = 0; warm < 3; ++warm) (void)predictor.Predict(x);
      const TensorAllocStats before = GetTensorAllocStats();
      for (int call = 0; call < 5; ++call) (void)predictor.Predict(x);
      const TensorAllocStats after = GetTensorAllocStats();
      EXPECT_EQ(after.alloc_count, before.alloc_count)
          << c.name << " at " << threads << " threads";
      EXPECT_GT(after.workspace_reuses, before.workspace_reuses);
    }
  }
  SetNumThreads(0);
}

TEST(McDropoutTest, ConcurrentCallsEachMatchASerialCall) {
  // Two threads Predict on one predictor: they take turns on its lane
  // replicas and get separate trunk states (TSan checks both), and each
  // call returns the bytes of the call index it drew.
  Rng rng(44);
  SplitCase c = TabularCase(&rng);
  const Tensor x = CaseInputs(c, 19, &rng);
  constexpr int kCalls = 16;
  McDropoutPredictor serial(c.model.get(), 10, /*batch_size=*/8);
  std::vector<std::vector<McPrediction>> want;
  for (int i = 0; i < kCalls; ++i) want.push_back(serial.Predict(x));
  McDropoutPredictor shared(c.model.get(), 10, /*batch_size=*/8);
  std::vector<std::vector<McPrediction>> got_a;
  std::vector<std::vector<McPrediction>> got_b;
  {
    BackgroundThread run_a("mc-a", [&] {
      for (int i = 0; i < kCalls / 2; ++i) got_a.push_back(shared.Predict(x));
    });
    BackgroundThread run_b("mc-b", [&] {
      for (int i = 0; i < kCalls / 2; ++i) got_b.push_back(shared.Predict(x));
    });
  }
  auto same = [](const std::vector<McPrediction>& a,
                 const std::vector<McPrediction>& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].mean != b[i].mean || a[i].std != b[i].std) return false;
    }
    return a.size() == b.size();
  };
  std::vector<bool> matched(kCalls, false);
  got_a.insert(got_a.end(), got_b.begin(), got_b.end());
  for (const auto& got : got_a) {
    bool found = false;
    for (int k = 0; k < kCalls && !found; ++k) {
      if (!matched[k] && same(got, want[k])) matched[k] = found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(McDropoutDeathTest, TooFewSamplesAborts) {
  Rng rng(7);
  auto model = DropoutModel(&rng);
  EXPECT_DEATH(McDropoutPredictor(model.get(), 1), ">= 2 samples");
}

}  // namespace
}  // namespace tasfar
