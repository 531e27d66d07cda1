#ifndef TASFAR_CORE_LABEL_DISTRIBUTION_ESTIMATOR_H_
#define TASFAR_CORE_LABEL_DISTRIBUTION_ESTIMATOR_H_

#include <vector>

#include "core/density_map.h"
#include "uncertainty/estimator.h"
#include "uncertainty/qs_calibration.h"

namespace tasfar {

/// Axis margin of the label density map beyond the confident predictions,
/// in spreads σ: the AutoAxes default that Tasfar::Adapt and the PDR
/// harness build their maps with.
inline constexpr double kGridMarginSigmas = 3.0;

/// The label distribution estimator of Algorithm 2: accumulates the
/// instance-label distributions of the confident predictions into a label
/// density map. For each confident prediction, the per-dimension spread is
/// σ_d = Q_s(u_d) (Eq. 6) and the per-cell mass is the integral of the
/// error-model density over the cell (Eq. 10-12).
class LabelDistributionEstimator {
 public:
  /// One Q_s model per label dimension (fitted on the source dataset).
  LabelDistributionEstimator(std::vector<QsModel> qs_per_dim,
                             ErrorModelKind error_model);

  /// Builds the normalized density map of the confident predictions on the
  /// given axes. `confident` must be non-empty, with per-prediction
  /// dimensionality equal to axes.size(). When `mean_sigma_out` is
  /// non-null it receives the mean per-dimension bandwidth
  /// Σσ / (|SET_C| · dims) — the exact value the
  /// `tasfar.density_map.mean_sigma` gauge publishes, so per-session
  /// telemetry can mirror the gauge bit-for-bit.
  DensityMap Estimate(const std::vector<McPrediction>& confident,
                      std::vector<GridSpec> axes,
                      double* mean_sigma_out = nullptr) const;

  /// Chooses axes covering all confident predictions ± `margin_sigmas`
  /// spreads, one axis per label dimension, with the given cell size.
  std::vector<GridSpec> AutoAxes(
      const std::vector<McPrediction>& confident, double cell_size,
      double margin_sigmas = kGridMarginSigmas) const;

  /// σ for one prediction and dimension (exposed for the generator/tests).
  double SigmaFor(const McPrediction& pred, size_t dim) const;

  ErrorModelKind error_model() const { return error_model_; }
  const std::vector<QsModel>& qs() const { return qs_per_dim_; }

 private:
  std::vector<QsModel> qs_per_dim_;
  ErrorModelKind error_model_;
};

}  // namespace tasfar

#endif  // TASFAR_CORE_LABEL_DISTRIBUTION_ESTIMATOR_H_
