#ifndef TASFAR_CORE_TASFAR_H_
#define TASFAR_CORE_TASFAR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/adaptation_trainer.h"
#include "core/confidence_classifier.h"
#include "core/density_map.h"
#include "core/label_distribution_estimator.h"
#include "core/pseudo_label_generator.h"
#include "uncertainty/estimator.h"
#include "uncertainty/qs_calibration.h"

namespace tasfar {

/// Error model of the instance-label distributions (Eq. 10-12): Gaussian,
/// as in the paper's experimental section. Tasfar::Adapt and the PDR
/// harness's component-level evaluations both build their density maps
/// with it.
inline constexpr ErrorModelKind kTasfarErrorModel = ErrorModelKind::kGaussian;

/// End-to-end configuration of TASFAR. Defaults follow the paper's
/// experimental section: MC dropout with 20 samples, η = 0.9, q = 40
/// segments, and confident-data replay during fine-tuning. The
/// uncertainty estimator is pluggable (docs/UNCERTAINTY.md):
/// `uncertainty_backend` selects which backend Calibrate/Adapt build
/// through MakeEstimator.
struct TasfarOptions {
  /// Which UncertaintyEstimator Calibrate/Adapt construct internally.
  UncertaintyBackend uncertainty_backend = UncertaintyBackend::kMcDropout;
  size_t mc_samples = 20;     ///< Stochastic passes for MC dropout.
  size_t ensemble_members = 5;  ///< Members for the kDeepEnsemble backend.
  double eta = 0.9;           ///< Source confidence ratio for τ (Alg. 1).
  size_t num_segments = 40;   ///< q of Eq. 7.
  double grid_cell_size = 0.1;  ///< g, in label units.
  AdaptationTrainConfig adaptation;
};

/// The EstimatorConfig implied by `options`. Seed and batch size keep the
/// EstimatorConfig defaults — callers with per-deployment values (serve
/// sessions) override those fields before calling MakeEstimator.
EstimatorConfig EstimatorConfigFromOptions(const TasfarOptions& options);

/// Everything computed on the source side before deployment: the
/// confidence threshold τ and the per-dimension Q_s curves. In the
/// source-free setting this travels with the model — no source data leaves
/// the source.
struct SourceCalibration {
  double tau = 0.0;
  std::vector<QsModel> qs_per_dim;
};

/// The (uncertainty, error) pairs Q_s is fitted on for label dimension
/// `dim` (Eq. 7): std[dim] and mean[dim] − label of every row whose
/// prediction and label are finite, in row order. A poisoned pass must not
/// reach the segment sort or the fit.
std::vector<UncertaintyErrorPair> CalibrationPairs(
    const std::vector<McPrediction>& predictions, const Tensor& targets,
    size_t dim);

/// Diagnostics and artifacts of one adaptation run.
struct TasfarReport {
  std::unique_ptr<Sequential> target_model;
  double tau = 0.0;
  size_t num_confident = 0;
  size_t num_uncertain = 0;
  /// Density map estimated from the confident data (empty optional when
  /// adaptation was skipped for lack of data).
  std::optional<DensityMap> density_map;
  /// Mean per-dimension bandwidth of the density map — the exact value of
  /// the `tasfar.density_map.mean_sigma` gauge (0 when no map was built).
  /// Per-session telemetry mirrors the gauge from this field.
  double density_mean_sigma = 0.0;
  /// Pseudo-labels of the uncertain samples, parallel to
  /// `uncertain_indices`.
  std::vector<PseudoLabel> pseudo_labels;
  std::vector<size_t> uncertain_indices;
  std::vector<size_t> confident_indices;
  /// MC predictions of every target sample (adaptation diagnostics).
  std::vector<McPrediction> predictions;
  /// Fine-tuning learning curve.
  std::vector<EpochStats> history;
  /// True when TASFAR fell back to returning a copy of the source model
  /// (no uncertain or no confident data).
  bool skipped = false;
  /// True when a pipeline stage faulted (non-finite predictions or
  /// pseudo-labels everywhere, degenerate density map, diverged training
  /// with no rollback snapshot, injected fault) and TASFAR returned a copy
  /// of the source model instead. The never-worse-than-source guarantee
  /// this fallback implements is the paper's core deployment property.
  bool fell_back = false;
  /// Human-readable cause of the fallback ("" when fell_back is false).
  std::string fallback_reason;
  /// Training diverged / was rolled back to its best-epoch snapshot
  /// (mirrors AdaptationResult; both false when training never ran).
  bool diverged = false;
  bool rolled_back = false;
};

/// The TASFAR pipeline (Fig. 1): confidence classification → label
/// distribution estimation → pseudo-label generation → weighted
/// fine-tuning.
class Tasfar {
 public:
  /// Captures the options by value; the instance is stateless otherwise
  /// and reusable across models and datasets.
  explicit Tasfar(const TasfarOptions& options);

  /// Source-side calibration: runs the configured uncertainty backend on
  /// held-out source data with known labels, derives τ (η-quantile of
  /// uncertainties) and fits Q_s per label dimension (Eq. 7-9). Call once
  /// before "shipping" the model.
  SourceCalibration Calibrate(Sequential* source_model,
                              const Tensor& source_inputs,
                              const Tensor& source_targets) const;

  /// Target-side adaptation on unlabeled `target_inputs`. Returns the
  /// adapted model plus diagnostics. If either split is empty the source
  /// model is returned unchanged (skipped = true).
  TasfarReport Adapt(Sequential* source_model,
                     const SourceCalibration& calibration,
                     const Tensor& target_inputs, Rng* rng) const;

  /// The uncertainty estimator is orthogonal to TASFAR (Section III-B of
  /// the paper), so both stages also accept externally computed
  /// predictions instead of running the configured backend — Calibrate and
  /// Adapt are thin wrappers that feed MakeEstimator's output into these.
  SourceCalibration CalibrateFromPredictions(
      const std::vector<McPrediction>& predictions,
      const Tensor& source_targets) const;
  TasfarReport AdaptWithPredictions(Sequential* source_model,
                                    const SourceCalibration& calibration,
                                    const Tensor& target_inputs,
                                    std::vector<McPrediction> predictions,
                                    Rng* rng) const;

  const TasfarOptions& options() const { return options_; }

 private:
  TasfarOptions options_;
};

}  // namespace tasfar

#endif  // TASFAR_CORE_TASFAR_H_
