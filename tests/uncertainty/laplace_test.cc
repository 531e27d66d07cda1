// Last-layer Laplace backend (docs/UNCERTAINTY.md): closed-form
// Gauss–Newton predictive variance with no stochastic passes — fully
// deterministic, OOD-sensitive, and pluggable wherever an
// UncertaintyEstimator is.

#include "uncertainty/laplace.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/tasfar.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tasfar {
namespace {

std::unique_ptr<Sequential> HeadedModel(Rng* rng) {
  auto m = std::make_unique<Sequential>();
  m->Emplace<Dense>(2, 16, rng);
  m->Emplace<Relu>();
  m->Emplace<Dense>(16, 1, rng);
  return m;
}

// The std of Var = φᵀ(λI + ΦᵀΦ)⁻¹φ for every row of `x`, with φ the
// bias-augmented features feeding the model's final Dense layer, solved by
// Gaussian elimination: an independent reference for LastLayerLaplace's
// Cholesky path at any prior precision λ.
std::vector<double> ReferenceStd(Sequential* model, const Tensor& x,
                                 double lambda) {
  const Tensor f =
      model->ForwardTo(x, model->NumLayers() - 1, /*training=*/false);
  const size_t n = f.dim(0);
  const size_t d = f.dim(1) + 1;
  auto phi = [&](size_t i, size_t a) {
    return a + 1 == d ? 1.0 : f.At(i, a);
  };
  std::vector<double> h(d * d, 0.0);
  for (size_t a = 0; a < d; ++a) {
    h[a * d + a] = lambda;
    for (size_t b = 0; b < d; ++b) {
      for (size_t i = 0; i < n; ++i) h[a * d + b] += phi(i, a) * phi(i, b);
    }
  }
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> m = h;
    std::vector<double> z(d);
    for (size_t a = 0; a < d; ++a) z[a] = phi(i, a);
    // H is symmetric positive definite, so no pivoting is needed.
    for (size_t k = 0; k < d; ++k) {
      for (size_t r = k + 1; r < d; ++r) {
        const double c = m[r * d + k] / m[k * d + k];
        for (size_t col = k; col < d; ++col) {
          m[r * d + col] -= c * m[k * d + col];
        }
        z[r] -= c * z[k];
      }
    }
    for (size_t k = d; k-- > 0;) {
      for (size_t col = k + 1; col < d; ++col) z[k] -= m[k * d + col] * z[col];
      z[k] /= m[k * d + k];
    }
    double var = 0.0;
    for (size_t a = 0; a < d; ++a) var += phi(i, a) * z[a];
    out[i] = std::sqrt(var);
  }
  return out;
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

TEST(LastLayerLaplaceTest, PredictsPerSampleWithPositiveVariance) {
  Rng rng(1);
  auto model = HeadedModel(&rng);
  LastLayerLaplace laplace(model.get());
  Tensor x = Tensor::RandomNormal({12, 2}, &rng);
  auto preds = laplace.Predict(x);
  ASSERT_EQ(preds.size(), 12u);
  for (const auto& p : preds) {
    ASSERT_EQ(p.mean.size(), 1u);
    ASSERT_EQ(p.std.size(), 1u);
    EXPECT_TRUE(std::isfinite(p.mean[0]));
    // φᵀ(λI + ΦᵀΦ)⁻¹φ > 0 whenever φ ≠ 0, and the bias feature makes
    // φ ≠ 0 for every row.
    EXPECT_GT(p.std[0], 0.0);
  }
}

TEST(LastLayerLaplaceTest, MeanIsTheModelsOwnPrediction) {
  Rng rng(2);
  auto model = HeadedModel(&rng);
  LastLayerLaplace laplace(model.get());
  Tensor x = Tensor::RandomNormal({8, 2}, &rng);
  auto preds = laplace.Predict(x);
  Tensor det = model->Forward(x, /*training=*/false);
  for (size_t i = 0; i < preds.size(); ++i) {
    EXPECT_NEAR(preds[i].mean[0], det.At(i, 0), 1e-12);
  }
  Tensor mean = BatchedForward(model.get(), x);
  EXPECT_NEAR(mean.MaxAbsDiff(det), 0.0, 1e-12);
}

TEST(LastLayerLaplaceTest, EveryCallIsByteIdenticalAtAnyThreadCount) {
  // Stronger than the per-call-index contract: with no stochastic state at
  // all, *every* call returns the same bytes, at 1, 2, and 8 threads.
  auto run = [](size_t threads) {
    SetNumThreads(threads);
    Rng rng(3);
    auto model = HeadedModel(&rng);
    LastLayerLaplace laplace(model.get());
    Tensor x = Tensor::RandomNormal({37, 2}, &rng);
    auto first = laplace.Predict(x);
    auto second = laplace.Predict(x);
    SetNumThreads(0);
    return std::make_pair(first, second);
  };
  auto [a1, a2] = run(1);
  auto [b1, b2] = run(2);
  auto [c1, c2] = run(8);
  ExpectIdentical(a1, a2);  // No per-call streams.
  ExpectIdentical(a1, b1);
  ExpectIdentical(a1, c1);
  ExpectIdentical(a2, b2);
  ExpectIdentical(a2, c2);
}

TEST(LastLayerLaplaceTest, OutlierRowsGetLargerVariance) {
  // The property the confidence split leans on: rows whose last-layer
  // features sit far from the batch's bulk — where the source model is
  // extrapolating — must report larger predictive std.
  Rng rng(4);
  auto model = HeadedModel(&rng);
  LastLayerLaplace laplace(model.get());
  Tensor x({41, 2});
  for (size_t i = 0; i < 40; ++i) {
    x.At(i, 0) = rng.Normal(0.0, 0.3);
    x.At(i, 1) = rng.Normal(0.0, 0.3);
  }
  x.At(40, 0) = 9.0;  // Far outside the cluster.
  x.At(40, 1) = -9.0;
  auto preds = laplace.Predict(x);
  double bulk = 0.0;
  for (size_t i = 0; i < 40; ++i) bulk += preds[i].std[0];
  bulk /= 40.0;
  EXPECT_GT(preds[40].std[0], bulk);
}

TEST(LastLayerLaplaceTest, StrongerPriorShrinksVariance) {
  // Var = φᵀ(λI + ΦᵀΦ)⁻¹φ is monotonically decreasing in λ. The estimator's
  // prior precision is λ = 1, so its std lies strictly between a weaker
  // (0.1) and a stronger (100) prior's, computed independently.
  Rng rng(5);
  auto model = HeadedModel(&rng);
  Tensor x = Tensor::RandomNormal({20, 2}, &rng);
  LastLayerLaplace laplace(model.get());
  const auto preds = laplace.Predict(x);
  const std::vector<double> weak = ReferenceStd(model.get(), x, 0.1);
  const std::vector<double> strong = ReferenceStd(model.get(), x, 100.0);
  ASSERT_EQ(preds.size(), weak.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    EXPECT_LT(strong[i], preds[i].std[0]) << "row " << i;
    EXPECT_LT(preds[i].std[0], weak[i]) << "row " << i;
  }
}

TEST(LastLayerLaplaceTest, MultiOutputSharesTheStdAcrossDims) {
  // The MSE Gauss–Newton posterior factorizes per output dimension with a
  // shared covariance, so every dim reports the same std.
  Rng rng(6);
  Sequential model;
  model.Emplace<Dense>(3, 8, &rng);
  model.Emplace<Relu>();
  model.Emplace<Dense>(8, 2, &rng);
  LastLayerLaplace laplace(&model);
  Tensor x = Tensor::RandomNormal({5, 3}, &rng);
  for (const auto& p : laplace.Predict(x)) {
    ASSERT_EQ(p.std.size(), 2u);
    EXPECT_EQ(p.std[0], p.std[1]);
  }
}

TEST(LastLayerLaplaceTest, EmptyInputReturnsEmpty) {
  Rng rng(7);
  auto model = HeadedModel(&rng);
  LastLayerLaplace laplace(model.get());
  Tensor empty({0, 2});
  EXPECT_TRUE(laplace.Predict(empty).empty());
}

TEST(LastLayerLaplaceTest, PluggableIntoTasfarPipeline) {
  // End-to-end orthogonality: calibrate and adapt on Laplace predictions
  // instead of MC dropout's, through the same Tasfar entry points.
  Rng rng(9);
  Tensor src_x({300, 1});
  Tensor src_y({300, 1});
  for (size_t i = 0; i < 300; ++i) {
    src_x.At(i, 0) = rng.Uniform(-2.0, 2.0);
    src_y.At(i, 0) = src_x.At(i, 0) + rng.Normal(0.0, 0.05);
  }
  Sequential model;
  model.Emplace<Dense>(1, 16, &rng);
  model.Emplace<Relu>();
  model.Emplace<Dense>(16, 1, &rng);
  Adam optimizer(0.01);
  Trainer trainer(&model, &optimizer,
                  [](const Tensor& p, const Tensor& t, Tensor* g,
                     const std::vector<double>* w) {
                    return loss::Mse(p, t, g, w);
                  });
  TrainConfig tc;
  tc.epochs = 40;
  Rng train_rng(10);
  trainer.Fit(src_x, src_y, tc, &train_rng);

  LastLayerLaplace laplace(&model);
  TasfarOptions options;
  options.grid_cell_size = 0.05;
  options.adaptation.train.epochs = 30;
  Tasfar tasfar(options);
  SourceCalibration calib =
      tasfar.CalibrateFromPredictions(laplace.Predict(src_x), src_y);
  EXPECT_GT(calib.tau, 0.0);

  Tensor tgt_x({150, 1});
  for (size_t i = 0; i < 150; ++i) {
    tgt_x.At(i, 0) =
        (i % 3 == 0) ? rng.Uniform(2.5, 3.5) : rng.Uniform(1.4, 1.9);
  }
  Rng adapt_rng(11);
  TasfarReport report = tasfar.AdaptWithPredictions(
      &model, calib, tgt_x, laplace.Predict(tgt_x), &adapt_rng);
  EXPECT_EQ(report.predictions.size(), 150u);
  EXPECT_EQ(report.num_confident + report.num_uncertain, 150u);
  ASSERT_NE(report.target_model, nullptr);
}

TEST(LastLayerLaplaceDeathTest, NonDenseHeadAborts) {
  Rng rng(12);
  Sequential model;
  model.Emplace<Dense>(2, 4, &rng);
  model.Emplace<Relu>();  // Head is an activation, not a Dense.
  EXPECT_DEATH(LastLayerLaplace{&model}, "Dense");
}

}  // namespace
}  // namespace tasfar
