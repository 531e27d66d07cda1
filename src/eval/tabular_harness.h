#ifndef TASFAR_EVAL_TABULAR_HARNESS_H_
#define TASFAR_EVAL_TABULAR_HARNESS_H_

#include <memory>
#include <string>

#include "baselines/uda_scheme.h"
#include "core/tasfar.h"
#include "data/dataset.h"
#include "eval/metrics.h"

namespace tasfar {

/// Headline metric of a tabular prediction task.
enum class TabularMetric {
  kMse,    ///< Housing-price metric.
  kRmsle,  ///< Taxi-duration metric.
};

/// Configuration of the generic tabular experiment pipeline (Fig. 21).
struct TabularHarnessConfig {
  std::string task_name = "tabular";
  TabularMetric metric = TabularMetric::kMse;
  uint64_t seed = 23;
  size_t source_epochs = 40;
  /// Model log1p(y) instead of y (standard for duration-like targets; the
  /// taxi task uses it so the heavy-tailed durations do not dominate the
  /// uncertainty calibration). Metrics are still computed in raw units.
  bool log_labels = false;
  TasfarOptions tasfar;
};

/// Result of adapting + evaluating one scheme on the tabular task.
struct TabularEval {
  double metric_adapt_before = 0.0;
  double metric_adapt_after = 0.0;
  double metric_test_before = 0.0;
  double metric_test_after = 0.0;
};

/// Shared pipeline for the two prediction tasks: normalizes features on
/// the source, trains the MLP regressor, calibrates, and runs each scheme
/// on the (spatially disjoint) target region.
class TabularHarness {
 public:
  /// `source` / `target` are the simulator outputs; the harness owns
  /// normalization and splitting.
  TabularHarness(const TabularHarnessConfig& config, Dataset source,
                 Dataset target);

  /// Trains + calibrates the source model.
  void Prepare();

  Sequential* source_model() { return source_model_.get(); }
  const SourceCalibration& calibration() const { return calibration_; }
  const Dataset& target_adapt() const { return target_adapt_; }
  const Dataset& target_test() const { return target_test_; }
  const TabularHarnessConfig& config() const { return config_; }

  /// Metric of `model` on (inputs, targets) under the configured metric.
  /// `targets` are raw-unit labels; the model's standardized outputs are
  /// de-standardized before the metric is computed.
  double Metric(Sequential* model, const Tensor& inputs,
                const Tensor& targets) const;

  /// Label standardization fitted on the source targets. The model is
  /// trained and adapted in standardized label space (so the uncertainty
  /// calibration and the density-map grid are scale-free); metrics are
  /// reported in raw units.
  double label_mean() const { return label_mean_; }
  double label_std() const { return label_std_; }

  /// TASFAR adaptation + evaluation.
  TabularEval EvaluateTasfar(TasfarReport* report_out = nullptr) const;

  /// TASFAR adaptation + evaluation under `options` — e.g. a different
  /// uncertainty backend (docs/UNCERTAINTY.md). Recalibrates τ/Q_s with
  /// those options so the calibration matches the backend that produces
  /// the uncertainties, then adapts with the same pinned stream as
  /// EvaluateTasfar.
  TabularEval EvaluateTasfarWithOptions(
      const TasfarOptions& options, TasfarReport* report_out = nullptr) const;

  /// Baseline adaptation + evaluation.
  TabularEval EvaluateScheme(UdaScheme* scheme) const;

 private:
  TabularEval EvaluateModel(Sequential* target_model) const;

  TabularHarnessConfig config_;
  Dataset source_raw_;
  Dataset target_raw_;
  Normalizer normalizer_;
  Dataset source_train_;
  Dataset source_calib_;
  Dataset target_adapt_;
  Dataset target_test_;
  double label_mean_ = 0.0;
  double label_std_ = 1.0;
  std::unique_ptr<Sequential> source_model_;
  SourceCalibration calibration_;
  bool prepared_ = false;
};

/// Feature-extractor cut of the tabular MLP for the alignment baselines.
size_t TabularModelCutLayer();

}  // namespace tasfar

#endif  // TASFAR_EVAL_TABULAR_HARNESS_H_
