#include "uncertainty/ensemble.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/tasfar.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "tensor/buffer.h"
#include "tensor/simd/dispatch.h"
#include "util/thread_pool.h"
#include "pass_reference.h"

namespace tasfar {
namespace {

std::unique_ptr<Sequential> SmallModel(Rng* rng) {
  auto m = std::make_unique<Sequential>();
  m->Emplace<Dense>(1, 16, rng);
  m->Emplace<Relu>();
  m->Emplace<Dense>(16, 1, rng);
  return m;
}

DeepEnsemble TrainedEnsemble(size_t members, uint64_t seed) {
  Rng rng(seed);
  Tensor x({200, 1});
  Tensor y({200, 1});
  for (size_t i = 0; i < 200; ++i) {
    x.At(i, 0) = rng.Uniform(-2.0, 2.0);
    y.At(i, 0) = x.At(i, 0) + rng.Normal(0.0, 0.05);
  }
  TrainConfig tc;
  tc.epochs = 40;
  return DeepEnsemble::Train(SmallModel, x, y, members, tc, 0.01, &rng);
}

TEST(DeepEnsembleTest, PredictsPerSampleWithDisagreement) {
  DeepEnsemble ensemble = TrainedEnsemble(3, 1);
  EXPECT_EQ(ensemble.num_members(), 3u);
  Rng rng(2);
  Tensor x = Tensor::RandomNormal({10, 1}, &rng);
  auto preds = ensemble.Predict(x);
  ASSERT_EQ(preds.size(), 10u);
  for (const auto& p : preds) {
    EXPECT_EQ(p.mean.size(), 1u);
    EXPECT_GE(p.std[0], 0.0);
  }
}

TEST(DeepEnsembleTest, InDistributionPredictionsAccurate) {
  DeepEnsemble ensemble = TrainedEnsemble(3, 3);
  Tensor x({3, 1}, {-1.0, 0.0, 1.0});
  Tensor mean = ensemble.PredictMean(x);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(mean.At(i, 0), x.At(i, 0), 0.15);
  }
}

TEST(DeepEnsembleTest, DisagreementGrowsOutOfDistribution) {
  DeepEnsemble ensemble = TrainedEnsemble(4, 5);
  Tensor in_dist({20, 1});
  Tensor out_dist({20, 1});
  Rng rng(7);
  for (size_t i = 0; i < 20; ++i) {
    in_dist.At(i, 0) = rng.Uniform(-1.5, 1.5);
    out_dist.At(i, 0) = rng.Uniform(5.0, 8.0);
  }
  double u_in = 0.0, u_out = 0.0;
  for (const auto& p : ensemble.Predict(in_dist)) {
    u_in += p.ScalarUncertainty();
  }
  for (const auto& p : ensemble.Predict(out_dist)) {
    u_out += p.ScalarUncertainty();
  }
  EXPECT_GT(u_out, u_in);
}

TEST(DeepEnsembleTest, MeanMatchesMemberAverage) {
  DeepEnsemble ensemble = TrainedEnsemble(2, 9);
  Rng rng(11);
  Tensor x = Tensor::RandomNormal({5, 1}, &rng);
  Tensor mean = ensemble.PredictMean(x);
  Tensor manual = (ensemble.member(0).Forward(x, false) +
                   ensemble.member(1).Forward(x, false)) /
                  2.0;
  EXPECT_NEAR(mean.MaxAbsDiff(manual), 0.0, 1e-12);
}

TEST(DeepEnsembleTest, PluggableIntoTasfarPipeline) {
  // The paper's orthogonality claim, end to end: calibrate and adapt with
  // ensemble predictions instead of MC dropout.
  Rng rng(13);
  Tensor src_x({300, 1});
  Tensor src_y({300, 1});
  for (size_t i = 0; i < 300; ++i) {
    src_x.At(i, 0) = rng.Uniform(-2.0, 2.0);
    src_y.At(i, 0) = src_x.At(i, 0) + rng.Normal(0.0, 0.05);
  }
  TrainConfig tc;
  tc.epochs = 40;
  DeepEnsemble ensemble =
      DeepEnsemble::Train(SmallModel, src_x, src_y, 3, tc, 0.01, &rng);

  TasfarOptions options;
  options.grid_cell_size = 0.05;
  options.adaptation.train.epochs = 30;
  Tasfar tasfar(options);
  SourceCalibration calib = tasfar.CalibrateFromPredictions(
      ensemble.Predict(src_x), src_y);
  EXPECT_GT(calib.tau, 0.0);

  // Target: in-distribution cluster + OOD inputs, labels near 1.8.
  Tensor tgt_x({150, 1});
  for (size_t i = 0; i < 150; ++i) {
    tgt_x.At(i, 0) =
        (i % 3 == 0) ? rng.Uniform(2.5, 3.5) : rng.Uniform(1.4, 1.9);
  }
  // Adapt member 0 using the ensemble's uncertainties.
  Rng adapt_rng(17);
  TasfarReport report = tasfar.AdaptWithPredictions(
      &ensemble.member(0), calib, tgt_x, ensemble.Predict(tgt_x),
      &adapt_rng);
  EXPECT_EQ(report.predictions.size(), 150u);
  EXPECT_EQ(report.num_confident + report.num_uncertain, 150u);
  ASSERT_NE(report.target_model, nullptr);
}

std::unique_ptr<Sequential> DropoutModel(Rng* rng) {
  auto m = std::make_unique<Sequential>();
  m->Emplace<Dense>(2, 16, rng);
  m->Emplace<Relu>();
  m->Emplace<Dropout>(0.2, rng->NextU64());
  m->Emplace<Dense>(16, 1, rng);
  return m;
}

void ExpectIdentical(const std::vector<McPrediction>& a,
                     const std::vector<McPrediction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].mean.size(), b[i].mean.size());
    for (size_t j = 0; j < a[i].mean.size(); ++j) {
      EXPECT_EQ(a[i].mean[j], b[i].mean[j]);
      EXPECT_EQ(a[i].std[j], b[i].std[j]);
    }
  }
}

TEST(SourceEnsembleTest, PinnedStreamsDisagreeAcrossMembers) {
  // Source-derived members share weights; diversity comes entirely from
  // the per-member pinned dropout streams, so disagreement must be > 0.
  Rng rng(31);
  auto model = DropoutModel(&rng);
  DeepEnsemble ensemble = DeepEnsemble::FromSource(model.get(), 5, 0x5eed);
  Tensor x = Tensor::RandomNormal({16, 2}, &rng, 0.0, 2.0);
  double total_std = 0.0;
  for (const auto& p : ensemble.Predict(x)) total_std += p.std[0];
  EXPECT_GT(total_std, 0.0);
}

TEST(SourceEnsembleTest, EveryCallIsByteIdentical) {
  // Masks are pinned to the member index, not the call index — unlike MC
  // dropout, repeat calls return the same bytes.
  Rng rng(32);
  auto model = DropoutModel(&rng);
  DeepEnsemble ensemble = DeepEnsemble::FromSource(model.get(), 4, 0x5eed);
  Tensor x = Tensor::RandomNormal({9, 2}, &rng);
  ExpectIdentical(ensemble.Predict(x), ensemble.Predict(x));
}

TEST(SourceEnsembleTest, PredictIsByteIdenticalAtAnyThreadCount) {
  // The fan-out across ParallelFor (one task per member, serial reduction
  // in ascending member order) must be invisible in the bytes.
  auto run = [](size_t threads) {
    SetNumThreads(threads);
    Rng rng(33);
    auto model = DropoutModel(&rng);
    DeepEnsemble ensemble = DeepEnsemble::FromSource(model.get(), 5, 0xfeed);
    Tensor x = Tensor::RandomNormal({37, 2}, &rng);
    auto preds = ensemble.Predict(x);
    SetNumThreads(0);
    return preds;
  };
  auto a = run(1);
  auto b = run(2);
  auto c = run(8);
  ExpectIdentical(a, b);
  ExpectIdentical(a, c);
}

TEST(SourceEnsembleTest, PredictMeanEqualsSourcePrediction) {
  // Members share the source weights, so the deterministic ensemble mean
  // is the source model's own deterministic prediction.
  Rng rng(34);
  auto model = DropoutModel(&rng);
  DeepEnsemble ensemble = DeepEnsemble::FromSource(model.get(), 3, 0x5eed);
  Tensor x = Tensor::RandomNormal({7, 2}, &rng);
  Tensor mean = ensemble.PredictMean(x);
  Tensor source = model->Forward(x, /*training=*/false);
  EXPECT_NEAR(mean.MaxAbsDiff(source), 0.0, 1e-12);
}

TEST(SourceEnsembleTest, SteadyStatePredictAllocatesNothing) {
  // Member k's pass runs on a Workspace arena fixed by k, whichever
  // worker takes it (docs/MEMORY.md): once warm, Predict must not
  // allocate a single tensor buffer.
  Rng rng(35);
  auto model = DropoutModel(&rng);
  DeepEnsemble ensemble = DeepEnsemble::FromSource(model.get(), 5, 0x5eed);
  Tensor x = Tensor::RandomNormal({32, 2}, &rng);
  for (int warm = 0; warm < 3; ++warm) (void)ensemble.Predict(x);
  const TensorAllocStats before = GetTensorAllocStats();
  auto preds = ensemble.Predict(x);
  const TensorAllocStats after = GetTensorAllocStats();
  EXPECT_EQ(after.alloc_count, before.alloc_count);
  EXPECT_GT(after.workspace_reuses, before.workspace_reuses);
  ASSERT_EQ(preds.size(), 32u);
}

TEST(SourceEnsembleTest, TrunkReuseMatchesFullPasses) {
  // Source-derived members share every weight, so Predict runs the trunk
  // once for all of them and only each member's head per member. The
  // result must be the bytes of one whole-model pass per member, at every
  // thread count, wherever the trunk ends and however the rows fill the
  // batches, on every call.
  constexpr size_t kMembers = 10;  // > kPassLanes: lanes hold two members.
  constexpr size_t kBatch = 8;
  constexpr uint64_t kSeed = 0x5eedULL;
  std::vector<uint64_t> seeds;
  for (size_t k = 0; k < kMembers; ++k) seeds.push_back(MixSeed(kSeed, k));
  for (size_t threads : {1, 2, 8}) {
    SetNumThreads(threads);
    Rng rng(43);
    for (SplitCase& c : SplitCases(&rng)) {
      for (size_t rows : {1, 5, 19}) {
        const Tensor x = CaseInputs(c, rows, &rng);
        const auto want = WholeModelPasses(c.model.get(), x, kBatch,
                                           /*training=*/true, /*f32=*/false,
                                           seeds);
        DeepEnsemble ensemble =
            DeepEnsemble::FromSource(c.model.get(), kMembers, kSeed, kBatch);
        for (int call = 0; call < 2; ++call) {
          ExpectSameBytes(ensemble.Predict(x), want,
                          c.name + " rows " + std::to_string(rows) +
                              " call " + std::to_string(call) + " threads " +
                              std::to_string(threads));
        }
      }
    }
    // Tabular in f32: the split goes through the layer-range ForwardF32.
    simd::SetComputeMode(simd::ComputeMode::kF32);
    SplitCase c = TabularCase(&rng);
    const Tensor x = CaseInputs(c, 19, &rng);
    DeepEnsemble ensemble =
        DeepEnsemble::FromSource(c.model.get(), kMembers, kSeed, kBatch);
    const auto want = WholeModelPasses(c.model.get(), x, kBatch,
                                       /*training=*/true, /*f32=*/true, seeds);
    for (int call = 0; call < 2; ++call) {
      ExpectSameBytes(ensemble.Predict(x), want,
                      "tabular f32 call " + std::to_string(call) +
                          " threads " + std::to_string(threads));
    }
    simd::SetComputeMode(simd::ComputeMode::kDouble);
  }
  SetNumThreads(0);
}

TEST(SourceEnsembleTest, ConcurrentEnsemblesShareMemberLanes) {
  // Member k of every ensemble runs on the same Workspace lane, so two
  // ensembles predicting at once contend for each lane: they must take
  // turns on it (TSan checks the pool accesses) and still return the
  // bytes each returns alone.
  Rng rng(38);
  auto model_a = DropoutModel(&rng);
  auto model_b = DropoutModel(&rng);
  DeepEnsemble a = DeepEnsemble::FromSource(model_a.get(), 5, 0x5eed);
  DeepEnsemble b = DeepEnsemble::FromSource(model_b.get(), 5, 0xfeed);
  Tensor x = Tensor::RandomNormal({40, 2}, &rng);
  const auto want_a = a.Predict(x);
  const auto want_b = b.Predict(x);
  std::vector<McPrediction> got_a;
  std::vector<McPrediction> got_b;
  {
    BackgroundThread run_a("ensemble-a", [&] {
      for (int i = 0; i < 20; ++i) got_a = a.Predict(x);
    });
    BackgroundThread run_b("ensemble-b", [&] {
      for (int i = 0; i < 20; ++i) got_b = b.Predict(x);
    });
  }
  ExpectIdentical(got_a, want_a);
  ExpectIdentical(got_b, want_b);
}

TEST(SourceEnsembleTest, ReseedRerollsTheMemberStreams) {
  Rng rng(36);
  auto model = DropoutModel(&rng);
  DeepEnsemble ensemble = DeepEnsemble::FromSource(model.get(), 4, 0x5eed);
  Tensor x = Tensor::RandomNormal({10, 2}, &rng, 0.0, 2.0);
  auto original = ensemble.Predict(x);
  ensemble.Reseed(0xabcdULL);
  auto rerolled = ensemble.Predict(x);
  double diff = 0.0;
  for (size_t i = 0; i < original.size(); ++i) {
    diff += std::fabs(original[i].mean[0] - rerolled[i].mean[0]);
  }
  EXPECT_GT(diff, 0.0);
  ensemble.Reseed(0x5eedULL);  // Replay: back to the original bytes.
  ExpectIdentical(ensemble.Predict(x), original);
}

TEST(SourceEnsembleTest, CloneRebuildsOverTheNewModel) {
  Rng rng(37);
  auto model = DropoutModel(&rng);
  DeepEnsemble ensemble = DeepEnsemble::FromSource(model.get(), 3, 0x5eed);
  auto replica_model = model->CloneSequential();
  auto clone = ensemble.Clone(replica_model.get());
  EXPECT_STREQ(clone->name(), "ensemble");
  Tensor x = Tensor::RandomNormal({8, 2}, &rng);
  ExpectIdentical(ensemble.Predict(x), clone->Predict(x));
}

TEST(DeepEnsembleDeathTest, SingleMemberRejected) {
  Rng rng(19);
  std::vector<std::unique_ptr<Sequential>> one;
  one.push_back(SmallModel(&rng));
  EXPECT_DEATH(DeepEnsemble{std::move(one)}, "at least two");
}

}  // namespace
}  // namespace tasfar
