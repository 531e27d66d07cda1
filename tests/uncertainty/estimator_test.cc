// The UncertaintyEstimator seam (docs/UNCERTAINTY.md): backend labels and
// wire values, and the MakeEstimator factory.

#include "uncertainty/estimator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "uncertainty/mc_dropout.h"
#include "util/rng.h"

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

EstimatorConfig ConfigFor(UncertaintyBackend backend) {
  EstimatorConfig config;
  config.backend = backend;
  return config;
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

TEST(UncertaintyBackendTest, NamesAreStable) {
  EXPECT_STREQ(UncertaintyBackendName(UncertaintyBackend::kMcDropout),
               "mc_dropout");
  EXPECT_STREQ(UncertaintyBackendName(UncertaintyBackend::kDeepEnsemble),
               "ensemble");
  EXPECT_STREQ(UncertaintyBackendName(UncertaintyBackend::kLastLayerLaplace),
               "laplace");
}

TEST(UncertaintyBackendTest, NameParseRoundTrips) {
  for (UncertaintyBackend backend :
       {UncertaintyBackend::kMcDropout, UncertaintyBackend::kDeepEnsemble,
        UncertaintyBackend::kLastLayerLaplace}) {
    UncertaintyBackend parsed;
    ASSERT_TRUE(
        ParseUncertaintyBackendName(UncertaintyBackendName(backend), &parsed));
    EXPECT_EQ(parsed, backend);
  }
  UncertaintyBackend unused;
  EXPECT_FALSE(ParseUncertaintyBackendName("dropout", &unused));
  EXPECT_FALSE(ParseUncertaintyBackendName("", &unused));
}

TEST(UncertaintyBackendTest, WireParseRoundTrips) {
  // The wire values are frozen (docs/PROTOCOL.md §Uncertainty backends).
  for (UncertaintyBackend backend :
       {UncertaintyBackend::kMcDropout, UncertaintyBackend::kDeepEnsemble,
        UncertaintyBackend::kLastLayerLaplace}) {
    UncertaintyBackend parsed;
    ASSERT_TRUE(ParseUncertaintyBackendWire(static_cast<uint8_t>(backend),
                                            &parsed));
    EXPECT_EQ(parsed, backend);
  }
  UncertaintyBackend out = UncertaintyBackend::kDeepEnsemble;
  EXPECT_FALSE(ParseUncertaintyBackendWire(3, &out));
  EXPECT_EQ(out, UncertaintyBackend::kDeepEnsemble);  // Untouched.
  EXPECT_FALSE(ParseUncertaintyBackendWire(255, &out));
}

TEST(MakeEstimatorTest, EveryBackendPredictsFiniteStats) {
  Rng rng(2);
  auto model = DropoutModel(&rng);
  Tensor x = Tensor::RandomNormal({9, 2}, &rng);
  for (UncertaintyBackend backend :
       {UncertaintyBackend::kMcDropout, UncertaintyBackend::kDeepEnsemble,
        UncertaintyBackend::kLastLayerLaplace}) {
    auto estimator = MakeEstimator(model.get(), ConfigFor(backend));
    auto preds = estimator->Predict(x);
    ASSERT_EQ(preds.size(), 9u) << UncertaintyBackendName(backend);
    for (const auto& p : preds) {
      ASSERT_EQ(p.mean.size(), 1u);
      ASSERT_EQ(p.std.size(), 1u);
      EXPECT_TRUE(std::isfinite(p.mean[0])) << UncertaintyBackendName(backend);
      EXPECT_GE(p.std[0], 0.0) << UncertaintyBackendName(backend);
    }
  }
}

TEST(MakeEstimatorTest, McDropoutDefaultMatchesDirectConstruction) {
  // The golden-tier guarantee in miniature: the factory's default backend
  // is the exact McDropoutPredictor the pipeline used before the seam
  // existed — same seed, same call-index streams, byte for byte.
  Rng rng(3);
  auto model = DropoutModel(&rng);
  Tensor x = Tensor::RandomNormal({11, 2}, &rng);
  EstimatorConfig config;  // Defaults: mc_dropout, 20 samples, seed 0x5eed.
  auto via_factory = MakeEstimator(model.get(), config);
  McDropoutPredictor direct(model.get(), config.mc_samples, config.batch_size,
                            config.seed);
  ExpectIdentical(via_factory->Predict(x), direct.Predict(x));
  ExpectIdentical(via_factory->Predict(x), direct.Predict(x));  // Call #2.
}

TEST(MakeEstimatorDeathTest, NullModelAborts) {
  EXPECT_DEATH(MakeEstimator(nullptr, EstimatorConfig{}), "");
}

}  // namespace
}  // namespace tasfar
