// Property-style sweep: every optimizer must train the same small
// regression problem to (near) convergence, and must behave sanely under
// gradient clipping.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace tasfar {
namespace {

enum class OptKind { kSgd, kSgdMomentum, kAdam };

class OptimizerPropertyTest : public ::testing::TestWithParam<OptKind> {
 protected:
  std::unique_ptr<Optimizer> Make() const {
    switch (GetParam()) {
      case OptKind::kSgd:
        return std::make_unique<Sgd>(0.05);
      case OptKind::kSgdMomentum:
        return std::make_unique<Sgd>(0.02, 0.9);
      case OptKind::kAdam:
        return std::make_unique<Adam>(0.02);
    }
    return nullptr;
  }
};

TEST_P(OptimizerPropertyTest, TrainsLinearRegressionToLowLoss) {
  Rng rng(5);
  Sequential model;
  model.Emplace<Dense>(3, 1, &rng);
  Tensor x = Tensor::RandomNormal({200, 3}, &rng);
  Tensor y({200, 1});
  for (size_t i = 0; i < 200; ++i) {
    y.At(i, 0) = 1.5 * x.At(i, 0) - 0.5 * x.At(i, 1) + 0.25;
  }
  auto opt = Make();
  Trainer trainer(&model, opt.get(),
                  [](const Tensor& p, const Tensor& t, Tensor* g,
                     const std::vector<double>* w) {
                    return loss::Mse(p, t, g, w);
                  });
  TrainConfig tc;
  tc.epochs = 150;
  tc.batch_size = 32;
  trainer.Fit(x, y, tc, &rng);
  EXPECT_LT(trainer.Evaluate(x, y), 1e-2);
}

TEST_P(OptimizerPropertyTest, GradientClippingStillConverges) {
  Rng rng(7);
  Sequential model;
  model.Emplace<Dense>(2, 1, &rng);
  Tensor x = Tensor::RandomNormal({100, 2}, &rng);
  Tensor y({100, 1});
  // Large-scale targets produce large gradients the clip must tame.
  for (size_t i = 0; i < 100; ++i) y.At(i, 0) = 50.0 * x.At(i, 0);
  auto opt = Make();
  Trainer trainer(&model, opt.get(),
                  [](const Tensor& p, const Tensor& t, Tensor* g,
                     const std::vector<double>* w) {
                    return loss::Mse(p, t, g, w);
                  });
  TrainConfig tc;
  tc.epochs = 400;
  tc.batch_size = 32;
  tc.clip_grad_norm = 5.0;
  auto history = trainer.Fit(x, y, tc, &rng);
  EXPECT_TRUE(std::isfinite(history.back().train_loss));
  EXPECT_LT(history.back().train_loss, history.front().train_loss);
}

TEST_P(OptimizerPropertyTest, DropoutOffTrainingIsDeterministic) {
  // With dropout disabled and both runs shuffling from Rng(13), two
  // identical runs produce identical models regardless of the optimizer.
  auto run = [&](Sequential* model) {
    Rng rng(11);
    Tensor x = Tensor::RandomNormal({40, 2}, &rng);
    Tensor targets({40, 1});
    for (size_t i = 0; i < 40; ++i) targets.At(i, 0) = x.At(i, 0);
    auto opt = Make();
    Trainer trainer(model, opt.get(),
                    [](const Tensor& p, const Tensor& t, Tensor* g,
                       const std::vector<double>* w) {
                      return loss::Mse(p, t, g, w);
                    });
    TrainConfig tc;
    tc.epochs = 10;
    tc.dropout_during_training = false;
    Rng train_rng(13);
    trainer.Fit(x, targets, tc, &train_rng);
  };
  Rng ra(17), rb(17);
  Sequential a, b;
  a.Emplace<Dense>(2, 4, &ra);
  a.Emplace<Relu>();
  a.Emplace<Dense>(4, 1, &ra);
  b.Emplace<Dense>(2, 4, &rb);
  b.Emplace<Relu>();
  b.Emplace<Dense>(4, 1, &rb);
  run(&a);
  run(&b);
  auto pa = a.Params();
  auto pb = b.Params();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa[i]->MaxAbsDiff(*pb[i]), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerPropertyTest,
                         ::testing::Values(OptKind::kSgd,
                                           OptKind::kSgdMomentum,
                                           OptKind::kAdam),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case OptKind::kSgd:
                               return "Sgd";
                             case OptKind::kSgdMomentum:
                               return "SgdMomentum";
                             case OptKind::kAdam:
                               return "Adam";
                           }
                           return "?";
                         });

}  // namespace
}  // namespace tasfar
