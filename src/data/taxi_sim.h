#ifndef TASFAR_DATA_TAXI_SIM_H_
#define TASFAR_DATA_TAXI_SIM_H_

#include <memory>

#include "data/dataset.h"
#include "util/rng.h"

namespace tasfar {

class Sequential;

/// Configuration of the taxi-trip-duration simulator, standing in for the
/// NYC Taxi dataset: the paper splits New York into non-Manhattan (source)
/// and Manhattan (target) departure points. The simulator models Manhattan
/// as a dense congested core where trips are shorter but much slower.
struct TaxiSimConfig {
  size_t source_samples = 4000;
  size_t target_samples = 2000;
};

/// Feature layout of the taxi rows (8 features).
enum TaxiFeature {
  kPickupX = 0,  ///< City coordinates; Manhattan is the box [0,0.3]^2.
  kPickupY = 1,
  kDropoffDx = 2,  ///< Trip vector.
  kDropoffDy = 3,
  kHourSin = 4,
  kHourCos = 5,
  kWeekday = 6,  ///< 1 = weekday, 0 = weekend.
  kPassengers = 7,
  kNumTaxiFeatures = 8,
};

/// Deterministic generator for the trip-duration task. Inputs {n, 8};
/// targets {n, 1} trip duration in minutes.
class TaxiSimulator {
 public:
  TaxiSimulator(const TaxiSimConfig& config, uint64_t seed);

  /// Trips departing outside Manhattan (source domain).
  Dataset GenerateSource();

  /// Trips departing inside Manhattan (target domain): short congested
  /// trips whose durations cluster tightly — the correlated target label
  /// distribution the paper's Fig. 21 exercises.
  Dataset GenerateTarget();

  const TaxiSimConfig& config() const { return config_; }

 private:
  void SampleRow(bool manhattan, Rng* rng, double* features,
                 double* duration);

  TaxiSimConfig config_;
  uint64_t seed_;
};

}  // namespace tasfar

#endif  // TASFAR_DATA_TAXI_SIM_H_
