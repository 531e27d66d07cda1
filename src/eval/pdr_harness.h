#ifndef TASFAR_EVAL_PDR_HARNESS_H_
#define TASFAR_EVAL_PDR_HARNESS_H_

#include <memory>
#include <vector>

#include "baselines/uda_scheme.h"
#include "core/tasfar.h"
#include "data/pdr_sim.h"
#include "eval/metrics.h"

namespace tasfar {

/// Configuration of the end-to-end PDR experiment pipeline shared by the
/// examples and every PDR bench (Figs. 2-3, 6-18, 22).
struct PdrHarnessConfig {
  PdrSimConfig sim;
  uint64_t seed = 7;
  size_t source_epochs = 30;
  TasfarOptions tasfar;
};

/// Per-user cache of everything the sweeps reuse: pooled adaptation/test
/// data and the MC-dropout predictions of the source model on them
/// (MC prediction is the expensive part of the pipeline).
struct PdrUserCache {
  PdrUserData user;
  Dataset adapt_pool;  ///< All adaptation trajectories pooled.
  Dataset test_pool;   ///< All test trajectories pooled.
  std::vector<McPrediction> adapt_preds;  ///< MC preds on adapt_pool.
};

/// STE/RTE evaluation of one adaptation run on one user.
struct PdrSchemeEval {
  double ste_adapt_before = 0.0;
  double ste_adapt_after = 0.0;
  double ste_test_before = 0.0;
  double ste_test_after = 0.0;
  /// Per-test-trajectory RTE before/after (parallel vectors).
  std::vector<double> rte_test_before;
  std::vector<double> rte_test_after;
};

/// Pseudo-label quality of one configuration on one user (the quantity
/// behind the parameter-sweep figures 8-10).
struct PseudoLabelEval {
  double pseudo_mae = 0.0;  ///< Mean |pseudo-label - truth| (uncertain set).
  double pred_mae = 0.0;    ///< Mean |source prediction - truth|.
  size_t num_uncertain = 0;
  size_t num_confident = 0;
  /// Per-sample credibility and error (for Fig. 11's correlation).
  std::vector<double> betas;
  std::vector<double> pseudo_errors;
};

/// Trains the PDR source model once and exposes the per-user adaptation
/// and evaluation steps plus the component-level hooks the parameter
/// sweeps need.
class PdrHarness {
 public:
  explicit PdrHarness(const PdrHarnessConfig& config);

  /// Simulates the source data, trains the TCN source model, and runs the
  /// source-side calibration. Must be called before anything else.
  void Prepare();

  Sequential* source_model() { return source_model_.get(); }
  const SourceCalibration& calibration() const { return calibration_; }
  const std::vector<PdrUserData>& users() const { return users_; }
  const Dataset& source_train() const { return source_train_; }
  const PdrHarnessConfig& config() const { return config_; }

  /// Recomputes τ/Q_s from the cached source MC predictions with different
  /// η / q (used by the Fig. 9-10 sweeps; no new model passes needed)
  /// through Tasfar::CalibrateFromPredictions, which drops non-finite
  /// predictions.
  SourceCalibration CalibrateWith(double eta, size_t num_segments) const;

  /// The raw uncertainty-vs-error segments of the source calibration split
  /// for one label dimension (the scatter behind Fig. 3), over the pairs
  /// CalibrationPairs keeps.
  std::vector<SegmentStats> UncertaintySegments(size_t dim,
                                                size_t num_segments) const;

  /// Pools the step windows of several trajectories into one dataset.
  static Dataset PoolTrajectories(const std::vector<PdrTrajectory>& trajs);

  /// Builds the reusable per-user cache (runs MC dropout once).
  PdrUserCache BuildUserCache(const PdrUserData& user) const;

  /// Full TASFAR adaptation + evaluation for one user.
  PdrSchemeEval EvaluateTasfar(const PdrUserCache& cache,
                               TasfarReport* report_out = nullptr) const;
  PdrSchemeEval EvaluateTasfarWithOptions(const PdrUserCache& cache,
                                          const TasfarOptions& options,
                                          TasfarReport* report_out) const;

  /// Baseline adaptation + evaluation for one user.
  PdrSchemeEval EvaluateScheme(UdaScheme* scheme,
                               const PdrUserCache& cache) const;

  /// Evaluation of an already-adapted model against the source model.
  PdrSchemeEval EvaluateModel(Sequential* target_model,
                              const PdrUserCache& cache) const;

  /// Component-level: pseudo-label quality under the given calibration,
  /// grid size, and error model (no fine-tuning).
  PseudoLabelEval PseudoLabelQuality(const PdrUserCache& cache,
                                     const SourceCalibration& calib,
                                     double grid_cell_size,
                                     ErrorModelKind error_model) const;

  /// Component-level: L1 distance (bounded by 2) between the estimated
  /// density map and the ground-truth map of the confident data's labels
  /// at a grid size — the error measure of the paper's Fig. 7.
  double DensityMapError(const PdrUserCache& cache,
                         const SourceCalibration& calib,
                         double grid_cell_size) const;

 private:
  PdrHarnessConfig config_;
  std::unique_ptr<PdrSimulator> simulator_;
  std::unique_ptr<Sequential> source_model_;
  Dataset source_train_;
  Dataset source_calib_;
  std::vector<McPrediction> source_calib_preds_;
  SourceCalibration calibration_;
  std::vector<PdrUserData> users_;
  bool prepared_ = false;
};

/// The feature-extractor cut (layer index) of the PDR model used by the
/// feature-alignment baselines: the activation after the penultimate Dense
/// + ReLU block.
size_t PdrModelCutLayer();

}  // namespace tasfar

#endif  // TASFAR_EVAL_PDR_HARNESS_H_
