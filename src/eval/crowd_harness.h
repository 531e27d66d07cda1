#ifndef TASFAR_EVAL_CROWD_HARNESS_H_
#define TASFAR_EVAL_CROWD_HARNESS_H_

#include <memory>
#include <vector>

#include "baselines/uda_scheme.h"
#include "core/tasfar.h"
#include "data/crowd_sim.h"
#include "eval/metrics.h"

namespace tasfar {

/// Configuration of the crowd-counting experiment pipeline (Table I,
/// Figs. 19-20).
struct CrowdHarnessConfig {
  CrowdSimConfig sim;
  uint64_t seed = 17;
  size_t source_epochs = 25;
  TasfarOptions tasfar;
};

/// MAE / "MSE" (RMSE, per the crowd-counting convention) on a scene's
/// adaptation and test sets. Table I's third set, the uncertain rows, is
/// pooled across scenes by its bench.
struct CrowdEval {
  double mae_adapt_whole = 0.0;
  double mse_adapt_whole = 0.0;
  double mae_test = 0.0;
  double mse_test = 0.0;
};

/// One target scene's pre-split data plus the cached MC predictions and
/// uncertain subset indices (shared across schemes so "uncertain" means
/// the same rows for every scheme, as in Table I).
struct CrowdSceneData {
  int scene_id = -1;
  Dataset adapt;
  Dataset test;
  std::vector<McPrediction> adapt_preds;
  std::vector<size_t> uncertain_indices;
};

/// Trains the multi-column counting model on Part A and exposes per-scene
/// (or pooled) adaptation and Table-I style evaluation.
class CrowdHarness {
 public:
  explicit CrowdHarness(const CrowdHarnessConfig& config);

  /// Simulates both parts, trains + calibrates the source model.
  void Prepare();

  Sequential* source_model() { return source_model_.get(); }
  const SourceCalibration& calibration() const { return calibration_; }
  const CrowdHarnessConfig& config() const { return config_; }
  const Dataset& part_a_train() const { return source_train_; }

  /// Per-scene target data (Part B split by site), adapt/test pre-split.
  std::vector<CrowdSceneData> BuildScenes() const;

  /// All Part-B data pooled into a single pseudo-scene (Fig. 20's
  /// "without partitioning" condition).
  CrowdSceneData BuildPooledScene() const;

  /// Table I reports absolute MAE/MSE, so this returns the absolute
  /// metrics of `model` on the scene's adaptation and test sets (in raw
  /// counts; log-space model outputs are converted back).
  CrowdEval Evaluate(Sequential* model, const CrowdSceneData& scene) const;

  /// Model outputs (log1p counts) -> raw counts, clamped at 0.
  Tensor ToCounts(const Tensor& model_output) const;

  /// Adapts with TASFAR on the scene's adaptation set.
  std::unique_ptr<Sequential> AdaptTasfar(const CrowdSceneData& scene,
                                          TasfarReport* report_out) const;

  /// Adapts with a baseline scheme.
  std::unique_ptr<Sequential> AdaptScheme(UdaScheme* scheme,
                                          const CrowdSceneData& scene) const;

 private:
  CrowdHarnessConfig config_;
  std::unique_ptr<CrowdSimulator> simulator_;
  std::unique_ptr<Sequential> source_model_;
  Dataset source_train_;
  Dataset source_calib_;
  SourceCalibration calibration_;
  Dataset part_b_;
  bool prepared_ = false;
};

/// Feature-extractor cut of the crowd model for the alignment baselines:
/// the activation after the fused Dense + ReLU block.
size_t CrowdModelCutLayer();

}  // namespace tasfar

#endif  // TASFAR_EVAL_CROWD_HARNESS_H_
