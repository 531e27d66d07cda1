#include "data/housing_sim.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/sequential.h"

namespace tasfar {

namespace {

/// Idiosyncratic price noise (in 100k$).
constexpr double kNoiseStd = 0.18;
/// Probability that a listing's records are anomalous (corrupted feature
/// values while the price reflects the true property). Rare in the inland
/// source region, common among the heterogeneous coastal vacation/rental
/// listings — the heterogeneous part of the domain gap.
constexpr double kSourceAnomalyProb = 0.04;
constexpr double kTargetAnomalyProb = 0.30;

}  // namespace

HousingSimulator::HousingSimulator(const HousingSimConfig& config,
                                   uint64_t seed)
    : config_(config), seed_(seed) {}

void HousingSimulator::SampleRow(bool coastal, Rng* rng, double* features,
                                 double* price) {
  // The target is the coastal *strip* just seaward of the source region:
  // its static features sit at the edge of the source support (so clean
  // coastal rows stay predictable), its prices cluster at the coastal
  // level, and the anomalous listings carry the bulk of the model error.
  const double t = kCoastalThreshold;
  const double coast_distance =
      coastal ? rng->Uniform(0.72 * t, t) : rng->Uniform(t, 1.0);
  const double latitude_band = rng->Uniform(0.0, 1.0);
  // All location-linked features vary *continuously* with coast distance:
  // coastal districts near the boundary resemble inland ones (the source
  // model stays accurate and confident there) while the deep-coastal
  // districts are genuinely out of distribution — a heterogeneous gap.
  double income = rng->Normal(5.6 - 2.6 * coast_distance, 1.1);
  income = std::clamp(income, 0.5, 12.0);
  const double house_age = rng->Uniform(1.0, 52.0);
  const double rooms = std::max(1.0, rng->Normal(5.3, 1.1));
  const double pop_density =
      std::max(0.05, rng->Normal(0.9 - 0.55 * coast_distance, 0.25));
  const double city_proximity = std::clamp(
      rng->Normal(0.8 - 0.5 * coast_distance, 0.2), 0.0, 1.0);
  // Ocean view is essentially zero inland, so the source model never
  // learns its (large) price coefficient — the view-rich coastal houses
  // are exactly the inputs it must be uncertain about.
  const double ocean_view = std::clamp(
      rng->Normal(std::max(0.0, 0.75 - 2.5 * coast_distance), 0.12), 0.0,
      1.0);

  features[kCoastDistance] = coast_distance;
  features[kLatitudeBand] = latitude_band;
  features[kMedianIncome] = income;
  features[kHouseAge] = house_age;
  features[kRoomsPerHousehold] = rooms;
  features[kPopulationDensity] = pop_density;
  features[kCityProximity] = city_proximity;
  features[kOceanViewScore] = ocean_view;

  // Anomalous listing: the recorded features are corrupted while the
  // price still reflects the true property — the model errs on these and
  // (because the corrupted values are off-distribution) is uncertain
  // about them, so the coastal price distribution can correct it.
  const bool anomaly = rng->Bernoulli(
      coastal ? kTargetAnomalyProb : kSourceAnomalyProb);
  if (anomaly) {
    features[kMedianIncome] =
        std::clamp(income * rng->Uniform(0.2, 3.0), 0.5, 14.0);
    features[kRoomsPerHousehold] =
        std::max(1.0, rooms * rng->Uniform(0.2, 3.0));
    features[kPopulationDensity] =
        std::max(0.05, pop_density * rng->Uniform(0.2, 4.0));
    features[kHouseAge] =
        std::clamp(house_age * rng->Uniform(0.2, 2.5), 1.0, 90.0);
  }

  // Price model (100k$): income and city proximity matter everywhere;
  // coast-related terms only bite near the coast, so a source model
  // trained inland underestimates coastal prices — and coastal prices
  // cluster high, giving the informative target label distribution.
  double value = 0.45 + 0.38 * income + 0.9 * city_proximity +
                 0.04 * rooms - 0.004 * house_age -
                 0.25 * pop_density * (1.0 - city_proximity);
  value += 0.5 * std::exp(-4.0 * coast_distance);  // Coastal premium.
  value += 0.8 * ocean_view;
  value += 0.35 * income * std::exp(-3.0 * coast_distance) / 5.0;
  value += rng->Normal(0.0, kNoiseStd);
  *price = std::clamp(value, 0.2, 12.0);
}

namespace {

Dataset GenerateTabular(
    size_t n, size_t num_features,
    const std::function<void(Rng*, double*, double*)>& sample, Rng* rng) {
  Dataset ds;
  ds.inputs = Tensor({n, num_features});
  ds.targets = Tensor({n, 1});
  std::vector<double> row(num_features);
  for (size_t i = 0; i < n; ++i) {
    double label = 0.0;
    sample(rng, row.data(), &label);
    for (size_t j = 0; j < num_features; ++j) ds.inputs.At(i, j) = row[j];
    ds.targets.At(i, 0) = label;
  }
  return ds;
}

}  // namespace

Dataset HousingSimulator::GenerateSource() {
  Rng rng = Rng(seed_).Fork(31);
  return GenerateTabular(
      config_.source_samples, kNumHousingFeatures,
      [this](Rng* r, double* f, double* p) { SampleRow(false, r, f, p); },
      &rng);
}

Dataset HousingSimulator::GenerateTarget() {
  Rng rng = Rng(seed_).Fork(32);
  return GenerateTabular(
      config_.target_samples, kNumHousingFeatures,
      [this](Rng* r, double* f, double* p) { SampleRow(true, r, f, p); },
      &rng);
}

std::unique_ptr<Sequential> BuildTabularModel(size_t num_features, Rng* rng) {
  TASFAR_CHECK(rng != nullptr);
  auto model = std::make_unique<Sequential>();
  model->Emplace<Dense>(num_features, 48, rng);
  model->Emplace<Relu>();
  model->Emplace<Dropout>(kModelDropoutRate, /*seed=*/rng->NextU64());
  model->Emplace<Dense>(48, 24, rng);
  model->Emplace<Relu>();
  model->Emplace<Dropout>(kModelDropoutRate, /*seed=*/rng->NextU64());
  model->Emplace<Dense>(24, 1, rng);
  return model;
}

}  // namespace tasfar
