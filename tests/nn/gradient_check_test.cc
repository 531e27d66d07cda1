#include "nn/gradient_check.h"

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/multi_column.h"
#include "util/rng.h"

namespace tasfar {
namespace {

LossFn MseLoss() {
  return [](const Tensor& p, const Tensor& t, Tensor* g,
            const std::vector<double>* w) { return loss::Mse(p, t, g, w); };
}

TEST(GradientCheckTest, DenseMlp) {
  Rng rng(1);
  Sequential model;
  model.Emplace<Dense>(3, 5, &rng);
  model.Emplace<Tanh>();
  model.Emplace<Dense>(5, 2, &rng);
  Tensor x = Tensor::RandomNormal({4, 3}, &rng);
  Tensor y = Tensor::RandomNormal({4, 2}, &rng);
  GradCheckResult result = CheckGradients(&model, x, y, MseLoss());
  EXPECT_GT(result.checked, 0u);
  EXPECT_LT(result.max_rel_error, 1e-4);
}

TEST(GradientCheckTest, DenseWithSigmoid) {
  Rng rng(2);
  Sequential model;
  model.Emplace<Dense>(2, 4, &rng);
  model.Emplace<Sigmoid>();
  model.Emplace<Dense>(4, 1, &rng);
  Tensor x = Tensor::RandomNormal({3, 2}, &rng);
  Tensor y = Tensor::RandomNormal({3, 1}, &rng);
  EXPECT_LT(CheckGradients(&model, x, y, MseLoss()).max_rel_error, 1e-4);
}

TEST(GradientCheckTest, Conv1dChain) {
  Rng rng(3);
  Sequential model;
  model.Emplace<Conv1d>(2, 3, 3, &rng, 1, 1);
  model.Emplace<Tanh>();
  model.Emplace<Conv1d>(3, 2, 3, &rng, 1, 2, /*dilation=*/2);
  model.Emplace<Flatten>();
  model.Emplace<Dense>(2 * 8, 2, &rng);
  Tensor x = Tensor::RandomNormal({2, 2, 8}, &rng);
  Tensor y = Tensor::RandomNormal({2, 2}, &rng);
  EXPECT_LT(CheckGradients(&model, x, y, MseLoss()).max_rel_error, 1e-4);
}

TEST(GradientCheckTest, Conv2dChainWithPooling) {
  Rng rng(4);
  Sequential model;
  model.Emplace<Conv2d>(1, 2, 3, &rng, 1, 1);
  model.Emplace<Tanh>();
  model.Emplace<MaxPool2d>(2);
  model.Emplace<Flatten>();
  model.Emplace<Dense>(2 * 2 * 2, 1, &rng);
  Tensor x = Tensor::RandomNormal({2, 1, 4, 4}, &rng);
  Tensor y = Tensor::RandomNormal({2, 1}, &rng);
  EXPECT_LT(CheckGradients(&model, x, y, MseLoss()).max_rel_error, 1e-4);
}

TEST(GradientCheckTest, GlobalAvgPoolChain) {
  Rng rng(5);
  Sequential model;
  model.Emplace<Conv2d>(1, 3, 3, &rng, 1, 1);
  model.Emplace<Tanh>();
  model.Emplace<GlobalAvgPool2d>();
  model.Emplace<Dense>(3, 1, &rng);
  Tensor x = Tensor::RandomNormal({2, 1, 5, 5}, &rng);
  Tensor y = Tensor::RandomNormal({2, 1}, &rng);
  EXPECT_LT(CheckGradients(&model, x, y, MseLoss()).max_rel_error, 1e-4);
}

TEST(GradientCheckTest, MultiColumnTopology) {
  Rng rng(6);
  auto b1 = std::make_unique<Sequential>();
  b1->Emplace<Dense>(3, 2, &rng);
  b1->Emplace<Tanh>();
  auto b2 = std::make_unique<Sequential>();
  b2->Emplace<Dense>(3, 3, &rng);
  b2->Emplace<Tanh>();
  auto columns = std::make_unique<MultiColumn>();
  columns->AddBranch(std::move(b1));
  columns->AddBranch(std::move(b2));
  Sequential model;
  model.Add(std::move(columns));
  model.Emplace<Dense>(5, 1, &rng);
  Tensor x = Tensor::RandomNormal({3, 3}, &rng);
  Tensor y = Tensor::RandomNormal({3, 1}, &rng);
  EXPECT_LT(CheckGradients(&model, x, y, MseLoss()).max_rel_error, 1e-4);
}

TEST(GradientCheckTest, ReportsCheckedCount) {
  Rng rng(8);
  Sequential model;
  model.Emplace<Dense>(2, 2, &rng);
  Tensor x = Tensor::RandomNormal({1, 2}, &rng);
  Tensor y = Tensor::RandomNormal({1, 2}, &rng);
  GradCheckResult result = CheckGradients(&model, x, y, MseLoss());
  EXPECT_EQ(result.checked, 2u * 2 + 2);
}

}  // namespace
}  // namespace tasfar
