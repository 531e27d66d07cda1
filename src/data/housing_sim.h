#ifndef TASFAR_DATA_HOUSING_SIM_H_
#define TASFAR_DATA_HOUSING_SIM_H_

#include <memory>

#include "data/dataset.h"
#include "util/rng.h"

namespace tasfar {

class Sequential;

/// Configuration of the housing-price simulator, standing in for the
/// California Housing dataset: the paper splits California spatially into
/// non-coastal (source) and coastal (target) districts, so the simulator
/// places districts on a coast-distance axis and gives coastal districts a
/// location-driven price structure the source model never saw.
struct HousingSimConfig {
  size_t source_samples = 4000;
  size_t target_samples = 2000;
};

/// Districts with coast_distance below this are "coastal" (target).
inline constexpr double kCoastalThreshold = 0.3;

/// Feature layout of the housing rows (8 features).
enum HousingFeature {
  kCoastDistance = 0,  ///< 0 = on the coast, 1 = far inland.
  kLatitudeBand = 1,
  kMedianIncome = 2,
  kHouseAge = 3,
  kRoomsPerHousehold = 4,
  kPopulationDensity = 5,
  kCityProximity = 6,
  kOceanViewScore = 7,
  kNumHousingFeatures = 8,
};

/// Deterministic generator for the housing-price task. Inputs are
/// {n, 8}; targets {n, 1} median house value in 100k$ units.
class HousingSimulator {
 public:
  HousingSimulator(const HousingSimConfig& config, uint64_t seed);

  /// Non-coastal districts (source domain).
  Dataset GenerateSource();

  /// Coastal districts (target domain). Prices there are driven by
  /// coast-related factors (view, coast distance) whose effect the source
  /// region barely exhibits — the domain gap — while remaining mutually
  /// correlated (the concentrated coastal price distribution TASFAR uses).
  Dataset GenerateTarget();

  const HousingSimConfig& config() const { return config_; }

 private:
  /// Draws one district; coastal toggles the sampling region.
  void SampleRow(bool coastal, Rng* rng, double* features, double* price);

  HousingSimConfig config_;
  uint64_t seed_;
};

/// MLP regressor for the tabular tasks (the paper uses an MLP baseline for
/// both prediction tasks). Output: {batch, 1}.
std::unique_ptr<Sequential> BuildTabularModel(size_t num_features, Rng* rng);

}  // namespace tasfar

#endif  // TASFAR_DATA_HOUSING_SIM_H_
