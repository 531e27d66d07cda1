#include "nn/sequential.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/crowd_sim.h"
#include "data/housing_sim.h"
#include "data/pdr_sim.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/multi_column.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tasfar {
namespace {

std::unique_ptr<Sequential> SmallMlp(Rng* rng) {
  auto model = std::make_unique<Sequential>();
  model->Emplace<Dense>(3, 4, rng);
  model->Emplace<Relu>();
  model->Emplace<Dense>(4, 2, rng);
  return model;
}

TEST(SequentialTest, ForwardChainsLayers) {
  Rng rng(1);
  auto model = SmallMlp(&rng);
  Tensor x = Tensor::RandomNormal({5, 3}, &rng);
  Tensor y = model->Forward(x, false);
  EXPECT_EQ(y.dim(0), 5u);
  EXPECT_EQ(y.dim(1), 2u);
}

TEST(SequentialTest, NumLayersAndAccess) {
  Rng rng(2);
  auto model = SmallMlp(&rng);
  EXPECT_EQ(model->NumLayers(), 3u);
  EXPECT_EQ(model->layer(1).Name(), "Relu");
}

TEST(SequentialTest, ParamsConcatenateAcrossLayers) {
  Rng rng(3);
  auto model = SmallMlp(&rng);
  EXPECT_EQ(model->Params().size(), 4u);  // Two Dense layers, W + b each.
  EXPECT_EQ(model->Grads().size(), 4u);
  EXPECT_EQ(model->ParameterCount(), 3u * 4 + 4 + 4u * 2 + 2);
}

TEST(SequentialTest, BackwardProducesInputGradient) {
  Rng rng(4);
  auto model = SmallMlp(&rng);
  Tensor x = Tensor::RandomNormal({2, 3}, &rng);
  Tensor y = model->Forward(x, true);
  Tensor g = model->Backward(Tensor::Ones(y.shape()));
  EXPECT_TRUE(g.SameShape(x));
}

TEST(SequentialTest, ForwardToStopsAtCut) {
  Rng rng(5);
  auto model = SmallMlp(&rng);
  Tensor x = Tensor::RandomNormal({2, 3}, &rng);
  Tensor feat = model->ForwardTo(x, 2, false);
  EXPECT_EQ(feat.dim(1), 4u);  // After Dense(3->4) + Relu.
  // ForwardTo with cut = 0 is the identity.
  EXPECT_DOUBLE_EQ(model->ForwardTo(x, 0, false).MaxAbsDiff(x), 0.0);
}

TEST(SequentialTest, ForwardFromRunsTheHead) {
  Rng rng(6);
  auto model = SmallMlp(&rng);
  Tensor x = Tensor::RandomNormal({2, 3}, &rng);
  Tensor feat = model->ForwardTo(x, 2, false);
  Tensor head_out = model->ForwardFrom(feat, 2, false);
  Tensor full_out = model->Forward(x, false);
  EXPECT_NEAR(head_out.MaxAbsDiff(full_out), 0.0, 1e-12);
}

TEST(SequentialTest, BackwardFromOnlyTouchesPrefixGrads) {
  Rng rng(7);
  auto model = SmallMlp(&rng);
  Tensor x = Tensor::RandomNormal({2, 3}, &rng);
  Tensor feat = model->ForwardTo(x, 2, true);
  model->ZeroGrads();
  model->BackwardFrom(Tensor::Ones(feat.shape()), 2);
  auto grads = model->Grads();
  // First Dense touched, second untouched.
  EXPECT_GT(grads[0]->SquaredNorm(), 0.0);
  EXPECT_DOUBLE_EQ(grads[2]->SquaredNorm(), 0.0);
}

TEST(SequentialTest, BackwardParamsMatchesBackwardOnTheTaskModels) {
  // BackwardParams skips the first layer's input gradient (a Conv1d, a
  // MultiColumn of Conv2d columns and a Dense here) and must leave every
  // parameter gradient byte-identical to Backward's, at any thread count.
  Rng rng(9);
  const size_t batch = 16;  // Large enough for the conv regions to fan out.
  struct Case {
    std::unique_ptr<Sequential> model;
    std::vector<size_t> input;
  };
  std::vector<Case> cases;
  cases.push_back({BuildCrowdModel(16, &rng), {batch, 1, 16, 16}});
  cases.push_back({BuildPdrModel(20, &rng), {batch, 6, 20}});
  cases.push_back({BuildTabularModel(8, &rng), {batch, 8}});
  for (Case& c : cases) {
    const std::string what = c.model->Name();
    const Tensor x = Tensor::RandomNormal(c.input, &rng);
    const Tensor y = c.model->Forward(x, /*training=*/true);
    const Tensor g = Tensor::RandomNormal(y.shape(), &rng);
    for (size_t threads : {1u, 2u, 8u}) {
      SetNumThreads(threads);
      c.model->ZeroGrads();
      c.model->Backward(g);
      std::vector<Tensor> want;
      for (Tensor* grad : c.model->Grads()) want.push_back(*grad);
      c.model->ZeroGrads();
      c.model->BackwardParams(g);
      const std::vector<Tensor*> got = c.model->Grads();
      ASSERT_EQ(got.size(), want.size()) << what;
      for (size_t i = 0; i < got.size(); ++i) {
        const Tensor& a = *got[i];
        const Tensor& b = want[i];
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
                  0)
            << what << " grad " << i << " threads=" << threads;
      }
    }
  }
  SetNumThreads(0);
}

TEST(SequentialTest, CloneSequentialMatchesOutputs) {
  Rng rng(8);
  auto model = SmallMlp(&rng);
  auto clone = model->CloneSequential();
  Tensor x = Tensor::RandomNormal({3, 3}, &rng);
  EXPECT_DOUBLE_EQ(
      model->Forward(x, false).MaxAbsDiff(clone->Forward(x, false)), 0.0);
}

TEST(SequentialTest, CloneIsIndependent) {
  Rng rng(9);
  auto model = SmallMlp(&rng);
  auto clone = model->CloneSequential();
  (*clone->Params()[0])[0] += 10.0;
  EXPECT_NE((*clone->Params()[0])[0], (*model->Params()[0])[0]);
}

TEST(SequentialTest, CopyParamsFrom) {
  Rng rng(10);
  auto a = SmallMlp(&rng);
  auto b = SmallMlp(&rng);  // Different init.
  Tensor x = Tensor::RandomNormal({2, 3}, &rng);
  EXPECT_GT(a->Forward(x, false).MaxAbsDiff(b->Forward(x, false)), 0.0);
  b->CopyParamsFrom(*a);
  EXPECT_DOUBLE_EQ(a->Forward(x, false).MaxAbsDiff(b->Forward(x, false)),
                   0.0);
}

TEST(SequentialTest, NameListsLayers) {
  Rng rng(11);
  auto model = SmallMlp(&rng);
  const std::string name = model->Name();
  EXPECT_NE(name.find("Dense(3->4)"), std::string::npos);
  EXPECT_NE(name.find("Relu"), std::string::npos);
}

TEST(SequentialTest, NestedSequentialWorks) {
  Rng rng(12);
  auto inner = std::make_unique<Sequential>();
  inner->Emplace<Dense>(3, 3, &rng);
  inner->Emplace<Relu>();
  Sequential outer;
  outer.Add(std::move(inner));
  outer.Emplace<Dense>(3, 1, &rng);
  Tensor x = Tensor::RandomNormal({2, 3}, &rng);
  Tensor y = outer.Forward(x, false);
  EXPECT_EQ(y.dim(1), 1u);
  EXPECT_EQ(outer.Params().size(), 4u);
}

TEST(SequentialTest, TrainingFlagPropagatesToDropout) {
  Rng rng(13);
  Sequential model;
  model.Emplace<Dropout>(0.5, 99);
  Tensor x = Tensor::Ones({10, 10});
  Tensor inference = model.Forward(x, false);
  EXPECT_DOUBLE_EQ(inference.MaxAbsDiff(x), 0.0);
  Tensor training = model.Forward(x, true);
  EXPECT_GT(training.MaxAbsDiff(x), 0.0);
}

TEST(SequentialTest, LayerRangeForwardF32ComposesToTheWholeChain) {
  Rng rng(14);
  auto model = SmallMlp(&rng);
  simd::F32Tensor in;
  in.FromTensor(Tensor::RandomNormal({5, 3}, &rng));
  simd::F32Tensor whole;
  simd::F32Tensor prefix;
  simd::F32Tensor rest;
  simd::F32Tensor none;
  model->ForwardF32(in, &whole, false);
  model->ForwardF32(in, &prefix, false, 0, 2);
  model->ForwardF32(prefix, &rest, false, 2, 3);
  model->ForwardF32(in, &none, false, 1, 1);  // Empty range: a copy.
  ASSERT_EQ(rest.size(), whole.size());
  EXPECT_EQ(std::memcmp(rest.data(), whole.data(),
                        whole.size() * sizeof(float)),
            0);
  ASSERT_EQ(none.size(), in.size());
  EXPECT_EQ(std::memcmp(none.data(), in.data(), in.size() * sizeof(float)),
            0);
}

TEST(SequentialTest, StochasticStateIsADropoutWithPositiveRate) {
  Rng rng(15);
  Sequential model;
  model.Emplace<Dense>(3, 4, &rng);
  model.Emplace<Dropout>(0.0, 1);
  EXPECT_FALSE(model.HasStochasticState());
  auto quiet = std::make_unique<Sequential>();
  quiet->Emplace<Relu>();
  auto noisy = std::make_unique<Sequential>();
  noisy->Emplace<Dropout>(0.2, 2);
  auto columns = std::make_unique<MultiColumn>();
  columns->AddBranch(std::move(quiet));
  EXPECT_FALSE(columns->HasStochasticState());
  columns->AddBranch(std::move(noisy));
  EXPECT_TRUE(columns->HasStochasticState());
  model.Add(std::move(columns));
  EXPECT_TRUE(model.HasStochasticState());
  EXPECT_FALSE(model.layer(0).HasStochasticState());
  EXPECT_FALSE(model.layer(1).HasStochasticState());
}

}  // namespace
}  // namespace tasfar
