#include "nn/activations.h"

#include <gtest/gtest.h>

#include <cmath>

namespace tasfar {
namespace {

TEST(ReluTest, ForwardClampsNegatives) {
  Relu relu;
  Tensor x({1, 4}, {-2.0, -0.5, 0.0, 3.0});
  Tensor y = relu.Forward(x, false);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 3.0);
}

TEST(ReluTest, BackwardMasksNegatives) {
  Relu relu;
  Tensor x({1, 3}, {-1.0, 0.0, 2.0});
  relu.Forward(x, true);
  Tensor g = relu.Backward(Tensor({1, 3}, {1.0, 1.0, 1.0}));
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[1], 0.0);  // Subgradient 0 at the kink.
  EXPECT_DOUBLE_EQ(g[2], 1.0);
}

TEST(TanhTest, ForwardMatchesStd) {
  Tanh tanh_layer;
  Tensor x({1, 3}, {-1.0, 0.0, 2.0});
  Tensor y = tanh_layer.Forward(x, false);
  EXPECT_DOUBLE_EQ(y[0], std::tanh(-1.0));
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], std::tanh(2.0));
}

TEST(TanhTest, BackwardUsesDerivative) {
  Tanh tanh_layer;
  Tensor x({1, 1}, {0.5});
  tanh_layer.Forward(x, true);
  Tensor g = tanh_layer.Backward(Tensor({1, 1}, {1.0}));
  const double t = std::tanh(0.5);
  EXPECT_NEAR(g[0], 1.0 - t * t, 1e-12);
}

TEST(SigmoidTest, ForwardRange) {
  Sigmoid sig;
  Tensor x({1, 3}, {-100.0, 0.0, 100.0});
  Tensor y = sig.Forward(x, false);
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(y[1], 0.5);
  EXPECT_NEAR(y[2], 1.0, 1e-12);
}

TEST(SigmoidTest, NumericallyStableAtExtremes) {
  Sigmoid sig;
  Tensor x({1, 2}, {-745.0, 745.0});
  Tensor y = sig.Forward(x, false);
  EXPECT_TRUE(y.AllFinite());
}

TEST(SigmoidTest, BackwardUsesDerivative) {
  Sigmoid sig;
  sig.Forward(Tensor({1, 1}, {0.0}), true);
  Tensor g = sig.Backward(Tensor({1, 1}, {4.0}));
  EXPECT_DOUBLE_EQ(g[0], 4.0 * 0.25);  // σ'(0) = 0.25.
}

TEST(ActivationsTest, CloneIsIndependent) {
  Relu relu;
  auto clone = relu.Clone();
  EXPECT_EQ(clone->Name(), "Relu");
  Tensor x({1, 1}, {-1.0});
  EXPECT_DOUBLE_EQ(clone->Forward(x, false)[0], 0.0);
}

TEST(ActivationsTest, WorkOnHigherRankTensors) {
  Relu relu;
  Tensor x({2, 3, 4});
  x.At(1, 2, 3) = -5.0;
  x.At(0, 0, 0) = 5.0;
  Tensor y = relu.Forward(x, false);
  EXPECT_DOUBLE_EQ(y.At(1, 2, 3), 0.0);
  EXPECT_DOUBLE_EQ(y.At(0, 0, 0), 5.0);
}

}  // namespace
}  // namespace tasfar
