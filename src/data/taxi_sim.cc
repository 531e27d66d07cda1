#include "data/taxi_sim.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace tasfar {

namespace {

constexpr double kNoiseLogStd = 0.10;  ///< Log-duration noise.
/// Probability of a GPS glitch corrupting the recorded trip vector
/// (urban-canyon multipath): none in the open outer boroughs, common
/// between Manhattan's high-rises. The duration still reflects the true
/// trip, so glitched rows are exactly the high-error, high-uncertainty
/// inputs the duration prior can fix.
constexpr double kSourceGlitchProb = 0.0;
constexpr double kTargetGlitchProb = 0.30;

}  // namespace

TaxiSimulator::TaxiSimulator(const TaxiSimConfig& config, uint64_t seed)
    : config_(config), seed_(seed) {}

void TaxiSimulator::SampleRow(bool manhattan, Rng* rng, double* features,
                              double* duration) {
  double px, py;
  if (manhattan) {
    px = rng->Uniform(0.0, 0.3);
    py = rng->Uniform(0.0, 0.3);
  } else {
    // Outside the Manhattan box: rejection-sample the rest of the city.
    do {
      px = rng->Uniform(0.0, 1.0);
      py = rng->Uniform(0.0, 1.0);
    } while (px < 0.3 && py < 0.3);
  }
  // Manhattan trips are short hops; outer-borough trips range further.
  const double trip_scale = manhattan ? 0.08 : 0.22;
  const double dx = rng->Normal(0.0, trip_scale);
  const double dy = rng->Normal(0.0, trip_scale);
  const double hour = rng->Uniform(0.0, 24.0);
  const double weekday = rng->Bernoulli(5.0 / 7.0) ? 1.0 : 0.0;
  const double passengers = 1.0 + static_cast<double>(rng->UniformInt(4));

  // GPS glitch: the *recorded* trip vector is corrupted by multipath
  // while the duration below is computed from the true trip.
  const bool glitch = rng->Bernoulli(
      manhattan ? kTargetGlitchProb : kSourceGlitchProb);
  // Multipath inflates the recorded vector far past plausible trip
  // lengths, which is what makes glitched rows detectable as uncertain.
  const double rec_dx =
      glitch ? dx * rng->Uniform(15.0, 40.0) + rng->Normal(0.0, 0.05) : dx;
  const double rec_dy =
      glitch ? dy * rng->Uniform(15.0, 40.0) + rng->Normal(0.0, 0.05) : dy;

  features[kPickupX] = px;
  features[kPickupY] = py;
  features[kDropoffDx] = rec_dx;
  features[kDropoffDy] = rec_dy;
  features[kHourSin] = std::sin(2.0 * std::numbers::pi * hour / 24.0);
  features[kHourCos] = std::cos(2.0 * std::numbers::pi * hour / 24.0);
  features[kWeekday] = weekday;
  features[kPassengers] = passengers;

  // Speed model (city units/min): congestion deepens toward the core's
  // center, so near-boundary Manhattan trips look source-like (the source
  // model stays accurate and confident on them) while deep-core trips are
  // ~3x slower than anything the source model has seen — a heterogeneous
  // domain gap, the setting TASFAR targets.
  // Mild uniform congestion inside the core; the dominant target-side
  // error source is the GPS glitches above, keeping the gap heterogeneous.
  const double core_factor = manhattan ? 0.8 : 1.0;
  const double rush =
      weekday > 0.5 &&
              ((hour > 7.0 && hour < 10.0) || (hour > 16.0 && hour < 19.0))
          ? 0.7
          : 1.0;
  const double speed = 0.035 * core_factor * rush *
                       std::exp(rng->Normal(0.0, 0.08));
  const double distance = std::sqrt(dx * dx + dy * dy) + 0.01;
  const double wait = 2.0;  // Lights + pickup friction.
  double minutes = distance / speed + wait;
  minutes *= std::exp(rng->Normal(0.0, kNoiseLogStd));
  *duration = std::clamp(minutes, 1.0, 180.0);
}

Dataset TaxiSimulator::GenerateSource() {
  Rng rng = Rng(seed_).Fork(41);
  Dataset ds;
  ds.inputs = Tensor({config_.source_samples, kNumTaxiFeatures});
  ds.targets = Tensor({config_.source_samples, 1});
  std::vector<double> row(kNumTaxiFeatures);
  for (size_t i = 0; i < config_.source_samples; ++i) {
    double label = 0.0;
    SampleRow(false, &rng, row.data(), &label);
    for (size_t j = 0; j < kNumTaxiFeatures; ++j) ds.inputs.At(i, j) = row[j];
    ds.targets.At(i, 0) = label;
  }
  return ds;
}

Dataset TaxiSimulator::GenerateTarget() {
  Rng rng = Rng(seed_).Fork(42);
  Dataset ds;
  ds.inputs = Tensor({config_.target_samples, kNumTaxiFeatures});
  ds.targets = Tensor({config_.target_samples, 1});
  std::vector<double> row(kNumTaxiFeatures);
  for (size_t i = 0; i < config_.target_samples; ++i) {
    double label = 0.0;
    SampleRow(true, &rng, row.data(), &label);
    for (size_t j = 0; j < kNumTaxiFeatures; ++j) ds.inputs.At(i, j) = row[j];
    ds.targets.At(i, 0) = label;
  }
  return ds;
}

}  // namespace tasfar
