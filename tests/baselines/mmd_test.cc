#include "baselines/mmd_uda.h"

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "util/rng.h"

namespace tasfar {
namespace {

TEST(MmdMathTest, IdenticalBatchesHaveNearZeroMmd) {
  Rng rng(1);
  Tensor a = Tensor::RandomNormal({16, 4}, &rng);
  EXPECT_NEAR(MmdSquared(a, a, {1.0}), 0.0, 1e-9);
}

TEST(MmdMathTest, ShiftedBatchesHavePositiveMmd) {
  Rng rng(2);
  Tensor a = Tensor::RandomNormal({32, 4}, &rng);
  Tensor b = Tensor::RandomNormal({32, 4}, &rng) + 3.0;
  EXPECT_GT(MmdSquared(a, b, {1.0}), 0.1);
}

TEST(MmdMathTest, MmdGrowsWithShift) {
  Rng rng(3);
  Tensor a = Tensor::RandomNormal({32, 2}, &rng);
  Tensor b_small = a + 0.5;
  Tensor b_large = a + 3.0;
  EXPECT_LT(MmdSquared(a, b_small, {1.0}), MmdSquared(a, b_large, {1.0}));
}

TEST(MmdMathTest, SymmetricInArguments) {
  Rng rng(4);
  Tensor a = Tensor::RandomNormal({16, 3}, &rng);
  Tensor b = Tensor::RandomNormal({12, 3}, &rng) + 1.0;
  EXPECT_NEAR(MmdSquared(a, b, {0.7, 1.5}), MmdSquared(b, a, {0.7, 1.5}),
              1e-12);
}

TEST(MmdMathTest, GradientMatchesFiniteDifference) {
  Rng rng(5);
  Tensor a = Tensor::RandomNormal({6, 2}, &rng);
  Tensor b = Tensor::RandomNormal({5, 2}, &rng) + 1.0;
  const std::vector<double> bw{0.8, 1.6};
  Tensor grad = MmdGradTarget(a, b, bw);
  const double eps = 1e-6;
  for (size_t i = 0; i < b.size(); ++i) {
    Tensor bp = b, bm = b;
    bp[i] += eps;
    bm[i] -= eps;
    const double numeric =
        (MmdSquared(a, bp, bw) - MmdSquared(a, bm, bw)) / (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric, 1e-6);
  }
}

TEST(MmdMathTest, GradientDescentReducesMmd) {
  Rng rng(6);
  Tensor a = Tensor::RandomNormal({24, 2}, &rng);
  Tensor b = Tensor::RandomNormal({24, 2}, &rng) + 2.0;
  const std::vector<double> bw{1.0, 2.0};
  const double before = MmdSquared(a, b, bw);
  for (int step = 0; step < 50; ++step) {
    Tensor grad = MmdGradTarget(a, b, bw);
    b -= grad * 5.0;
  }
  EXPECT_LT(MmdSquared(a, b, bw), before * 0.5);
}

TEST(MmdMathTest, MedianPairwiseDistancePositive) {
  Rng rng(7);
  Tensor a = Tensor::RandomNormal({10, 3}, &rng);
  Tensor b = Tensor::RandomNormal({10, 3}, &rng);
  EXPECT_GT(MedianPairwiseDistance(a, b), 0.0);
}

TEST(MmdMathTest, MedianDistanceDegenerateFallsBackToOne) {
  Tensor a = Tensor::Zeros({4, 2});
  EXPECT_DOUBLE_EQ(MedianPairwiseDistance(a, a), 1.0);
}

TEST(MmdUdaTest, AdaptAlignsShiftedTargetFeatures) {
  Rng rng(8);
  // Model: Dense -> Relu -> Dense; cut after Relu.
  Sequential source;
  source.Emplace<Dense>(2, 8, &rng);
  source.Emplace<Relu>();
  source.Emplace<Dense>(8, 1, &rng);

  Tensor xs = Tensor::RandomNormal({128, 2}, &rng);
  Tensor ys({128, 1});
  for (size_t i = 0; i < 128; ++i) ys.At(i, 0) = xs.At(i, 0);
  Tensor xt = Tensor::RandomNormal({128, 2}, &rng) + 1.5;

  MmdUdaOptions opts;
  opts.cut_layer = 2;
  opts.epochs = 10;
  MmdUda scheme(opts);
  UdaContext ctx{&xs, &ys, &xt};
  Rng adapt_rng(9);
  auto adapted = scheme.Adapt(source, ctx, &adapt_rng);
  ASSERT_NE(adapted, nullptr);

  // Feature MMD between source and target should shrink after adaptation.
  Tensor f_s_before = source.ForwardTo(xs, 2, false);
  Tensor f_t_before = source.ForwardTo(xt, 2, false);
  Tensor f_s_after = adapted->ForwardTo(xs, 2, false);
  Tensor f_t_after = adapted->ForwardTo(xt, 2, false);
  const double med = MedianPairwiseDistance(f_s_before, f_t_before);
  EXPECT_LT(MmdSquared(f_s_after, f_t_after, {med}),
            MmdSquared(f_s_before, f_t_before, {med}));
}

TEST(MmdUdaTest, SupervisedStepsKeepSourceAccuracy) {
  Rng rng(10);
  Sequential source;
  source.Emplace<Dense>(1, 8, &rng);
  source.Emplace<Relu>();
  source.Emplace<Dense>(8, 1, &rng);
  // Pre-train on y = 2x.
  Tensor xs = Tensor::RandomNormal({256, 1}, &rng);
  Tensor ys = xs * 2.0;
  Adam opt(0.01);
  Trainer trainer(&source, &opt,
                  [](const Tensor& p, const Tensor& t, Tensor* g,
                     const std::vector<double>* w) {
                    return loss::Mse(p, t, g, w);
                  });
  TrainConfig tc;
  tc.epochs = 40;
  trainer.Fit(xs, ys, tc, &rng);

  Tensor xt = Tensor::RandomNormal({128, 1}, &rng) * 1.2;
  MmdUdaOptions opts;
  opts.cut_layer = 2;
  opts.epochs = 5;
  MmdUda scheme(opts);
  UdaContext ctx{&xs, &ys, &xt};
  Rng adapt_rng(11);
  auto adapted = scheme.Adapt(source, ctx, &adapt_rng);
  Tensor pred = adapted->Forward(xs, false);
  EXPECT_LT(loss::Mse(pred, ys, nullptr, nullptr), 0.3);
}

TEST(MmdUdaDeathTest, MissingSourceDataAborts) {
  Rng rng(12);
  Sequential source;
  source.Emplace<Dense>(2, 2, &rng);
  source.Emplace<Relu>();
  source.Emplace<Dense>(2, 1, &rng);
  MmdUdaOptions opts;
  opts.cut_layer = 2;
  MmdUda scheme(opts);
  Tensor xt({4, 2});
  UdaContext ctx{nullptr, nullptr, &xt};
  Rng r(13);
  EXPECT_DEATH(scheme.Adapt(source, ctx, &r), "source-based");
}

TEST(MmdUdaTest, NameIsMmd) {
  MmdUdaOptions opts;
  opts.cut_layer = 1;
  EXPECT_EQ(MmdUda(opts).name(), "MMD");
}

}  // namespace
}  // namespace tasfar
