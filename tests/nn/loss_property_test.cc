// Algebraic invariants of the weighted losses, swept over batch shapes.

#include <gtest/gtest.h>

#include <tuple>

#include "nn/loss.h"
#include "util/rng.h"

namespace tasfar {
namespace {

using Shape = std::tuple<size_t, size_t>;  // batch, dims.

class LossPropertyTest : public ::testing::TestWithParam<Shape> {
 protected:
  size_t batch() const { return std::get<0>(GetParam()); }
  size_t dims() const { return std::get<1>(GetParam()); }

  Tensor Random(uint64_t seed) const {
    Rng rng(seed);
    return Tensor::RandomNormal({batch(), dims()}, &rng);
  }
};

TEST_P(LossPropertyTest, UnitWeightsEqualNoWeights) {
  Tensor p = Random(1), t = Random(2);
  std::vector<double> ones(batch(), 1.0);
  EXPECT_DOUBLE_EQ(loss::Mse(p, t, nullptr, &ones), loss::Mse(p, t));
}

TEST_P(LossPropertyTest, LossIsNonNegativeAndZeroAtTarget) {
  Tensor p = Random(3);
  EXPECT_DOUBLE_EQ(loss::Mse(p, p), 0.0);
  Tensor t = Random(4);
  EXPECT_GE(loss::Mse(p, t), 0.0);
}

TEST_P(LossPropertyTest, WeightScalingScalesLossLinearly) {
  Tensor p = Random(5), t = Random(6);
  Rng rng(7);
  std::vector<double> w(batch());
  for (double& x : w) x = rng.Uniform(0.1, 2.0);
  std::vector<double> w2 = w;
  for (double& x : w2) x *= 3.0;
  EXPECT_NEAR(loss::Mse(p, t, nullptr, &w2),
              3.0 * loss::Mse(p, t, nullptr, &w), 1e-9);
}

TEST_P(LossPropertyTest, GradientIsZeroAtTarget) {
  Tensor p = Random(10);
  Tensor grad;
  loss::Mse(p, p, &grad);
  EXPECT_DOUBLE_EQ(grad.SquaredNorm(), 0.0);
}

TEST_P(LossPropertyTest, MseIsSymmetricInArguments) {
  Tensor p = Random(11), t = Random(12);
  EXPECT_DOUBLE_EQ(loss::Mse(p, t), loss::Mse(t, p));
}

INSTANTIATE_TEST_SUITE_P(Shapes, LossPropertyTest,
                         ::testing::Values(Shape{1, 1}, Shape{4, 1},
                                           Shape{1, 3}, Shape{7, 2},
                                           Shape{16, 4}),
                         [](const auto& param_info) {
                           return "b" +
                                  std::to_string(std::get<0>(param_info.param)) +
                                  "d" +
                                  std::to_string(std::get<1>(param_info.param));
                         });

}  // namespace
}  // namespace tasfar
