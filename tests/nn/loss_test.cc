#include "nn/loss.h"

#include <gtest/gtest.h>

#include <cmath>

namespace tasfar {
namespace {

TEST(MseLossTest, PerfectPredictionIsZero) {
  Tensor p({2, 1}, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(loss::Mse(p, p), 0.0);
}

TEST(MseLossTest, KnownValue) {
  Tensor p({2, 1}, {1.0, 3.0});
  Tensor t({2, 1}, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(loss::Mse(p, t), (1.0 + 9.0) / 2.0);
}

TEST(MseLossTest, MultiDimSumsOverDims) {
  Tensor p({1, 2}, {1.0, 2.0});
  Tensor t({1, 2}, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(loss::Mse(p, t), 5.0);
}

TEST(MseLossTest, GradientMatchesFiniteDifference) {
  Tensor p({2, 2}, {0.5, -1.0, 2.0, 0.0});
  Tensor t({2, 2}, {0.0, 0.0, 1.0, 1.0});
  Tensor grad;
  loss::Mse(p, t, &grad);
  const double eps = 1e-6;
  for (size_t i = 0; i < p.size(); ++i) {
    Tensor pp = p, pm = p;
    pp[i] += eps;
    pm[i] -= eps;
    const double numeric =
        (loss::Mse(pp, t) - loss::Mse(pm, t)) / (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric, 1e-6);
  }
}

TEST(MseLossTest, WeightsScaleContributions) {
  Tensor p({2, 1}, {1.0, 1.0});
  Tensor t({2, 1}, {0.0, 0.0});
  std::vector<double> w{2.0, 0.0};
  EXPECT_DOUBLE_EQ(loss::Mse(p, t, nullptr, &w), 1.0);  // (2*1 + 0*1)/2.
}

TEST(MseLossTest, ZeroWeightZeroGradient) {
  Tensor p({1, 1}, {5.0});
  Tensor t({1, 1}, {0.0});
  std::vector<double> w{0.0};
  Tensor grad;
  loss::Mse(p, t, &grad, &w);
  EXPECT_DOUBLE_EQ(grad[0], 0.0);
}

TEST(BceLossTest, ConfidentCorrectIsNearZero) {
  Tensor p({1, 1}, {0.999999});
  Tensor t({1, 1}, {1.0});
  EXPECT_NEAR(loss::BinaryCrossEntropy(p, t), 0.0, 1e-5);
}

TEST(BceLossTest, HalfProbabilityIsLogTwo) {
  Tensor p({1, 1}, {0.5});
  Tensor t({1, 1}, {1.0});
  EXPECT_NEAR(loss::BinaryCrossEntropy(p, t), std::log(2.0), 1e-12);
}

TEST(BceLossTest, GradientMatchesFiniteDifference) {
  Tensor p({2, 1}, {0.3, 0.8});
  Tensor t({2, 1}, {1.0, 0.0});
  Tensor grad;
  loss::BinaryCrossEntropy(p, t, &grad);
  const double eps = 1e-7;
  for (size_t i = 0; i < p.size(); ++i) {
    Tensor pp = p, pm = p;
    pp[i] += eps;
    pm[i] -= eps;
    const double numeric = (loss::BinaryCrossEntropy(pp, t) -
                            loss::BinaryCrossEntropy(pm, t)) /
                           (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric, 1e-5);
  }
}

TEST(BceLossTest, ExtremeProbabilitiesStayFinite) {
  Tensor p({2, 1}, {0.0, 1.0});
  Tensor t({2, 1}, {1.0, 0.0});
  Tensor grad;
  const double value = loss::BinaryCrossEntropy(p, t, &grad);
  EXPECT_TRUE(std::isfinite(value));
  EXPECT_TRUE(grad.AllFinite());
}

TEST(LossDeathTest, ShapeMismatchAborts) {
  Tensor p({2, 1});
  Tensor t({3, 1});
  EXPECT_DEATH(loss::Mse(p, t), "");
}

TEST(LossDeathTest, WrongWeightCountAborts) {
  Tensor p({2, 1});
  std::vector<double> w{1.0};
  EXPECT_DEATH(loss::Mse(p, p, nullptr, &w), "one weight per batch row");
}

}  // namespace
}  // namespace tasfar
