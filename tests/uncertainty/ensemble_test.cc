#include "uncertainty/ensemble.h"

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "tensor/buffer.h"
#include "tensor/simd/dispatch.h"
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

TEST(SourceEnsembleTest, SteadyStatePredictAllocatesNothing) {
  // Member k's pass runs on a Workspace arena fixed by k, whichever
  // worker takes it, and the trunk's run r of slices on a Workspace fixed
  // by r (docs/MEMORY.md): once warm, Predict must not allocate a single
  // tensor buffer at any pool width, on one slice (32 rows at the default
  // batch) or on three (19 rows at batch 8).
  struct Shape {
    size_t rows;
    size_t batch;
  };
  for (size_t threads : {1, 2, 4, 8}) {
    SetNumThreads(threads);
    Rng rng(35);
    auto model = DropoutModel(&rng);
    for (const Shape shape : {Shape{32, 64}, Shape{19, 8}}) {
      DeepEnsemble ensemble =
          DeepEnsemble::FromSource(model.get(), 5, 0x5eed, shape.batch);
      Tensor x = Tensor::RandomNormal({shape.rows, 2}, &rng);
      for (int warm = 0; warm < 3; ++warm) (void)ensemble.Predict(x);
      const TensorAllocStats before = GetTensorAllocStats();
      for (int call = 0; call < 5; ++call) {
        ASSERT_EQ(ensemble.Predict(x).size(), shape.rows);
      }
      const TensorAllocStats after = GetTensorAllocStats();
      EXPECT_EQ(after.alloc_count, before.alloc_count)
          << shape.rows << " rows at " << threads << " threads";
      EXPECT_GT(after.workspace_reuses, before.workspace_reuses);
    }
  }
  SetNumThreads(0);
}

TEST(SourceEnsembleTest, TrunkReuseMatchesFullPasses) {
  // Source-derived members share every weight, so Predict runs the trunk
  // once for all of them and only each member's head per member. The
  // result must be the bytes of one whole-model pass per member, at every
  // thread count, wherever the trunk ends and however the rows fill the
  // batches, on every call. At 2 and 8 threads the heads run on the
  // caller when 10 members × rows × head weights is under
  // kParallelMinMadds, and fan out otherwise: tabular (1201 head weights)
  // and crowd (833) run 1 and 5 rows on the caller and fan 19 out, as
  // does tabular f32; pdr (20,674) fans every row count out;
  // dropout_first (50), branch_dropout (73) and no_dropout (0) run every
  // row count on the caller.
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

TEST(DeepEnsembleDeathTest, SingleMemberRejected) {
  Rng rng(19);
  auto model = DropoutModel(&rng);
  EXPECT_DEATH(DeepEnsemble::FromSource(model.get(), 1, 0x5eed),
               "at least two");
}

}  // namespace
}  // namespace tasfar
