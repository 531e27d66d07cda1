#ifndef TASFAR_DATA_DATASET_H_
#define TASFAR_DATA_DATASET_H_

#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace tasfar {

/// In-memory supervised dataset. `inputs` has the sample count as its first
/// dimension (rank 2 for tabular data, 3 for sequence windows, 4 for
/// images); `targets` is always {n, label_dim}. `group_ids`, when
/// non-empty, tags each sample with a scenario id (user, scene, trajectory)
/// used by the per-scenario experiments.
struct Dataset {
  Tensor inputs;
  Tensor targets;
  std::vector<int> group_ids;

  size_t size() const { return inputs.rank() == 0 ? 0 : inputs.dim(0); }
  size_t label_dim() const { return targets.rank() == 2 ? targets.dim(1) : 0; }

  /// Asserts internal consistency (row counts and group tag count agree).
  void Validate() const;
};

/// Selects the given samples into a new dataset.
Dataset Subset(const Dataset& ds, const std::vector<size_t>& indices);

/// Concatenates datasets with identical per-sample shapes.
Dataset Concat(const std::vector<Dataset>& parts);

/// Samples with group_ids equal to `group`.
Dataset FilterByGroup(const Dataset& ds, int group);

/// Distinct group ids in first-appearance order.
std::vector<int> DistinctGroups(const Dataset& ds);

/// Splits into a leading fraction and the remainder. When `shuffle` is
/// true the split is random (driven by rng); otherwise the original order
/// is kept — the PDR experiments keep trajectory order and split by
/// trajectory instead.
struct SplitResult {
  Dataset first;
  Dataset second;
};
SplitResult SplitFraction(const Dataset& ds, double first_fraction,
                          bool shuffle, Rng* rng);

/// Split fractions of the experiment protocol, shared by every task. Each
/// target scenario adapts on this share of its data (its trajectories for
/// PDR) and tests on the rest.
inline constexpr double kAdaptationFraction = 0.8;
/// Share of the source data held out to calibrate τ and Q_s.
inline constexpr double kCalibrationFraction = 0.25;
/// Dropout rate of the task models' stochastic layers (BuildPdrModel,
/// BuildCrowdModel, BuildTabularModel), in training and MC sampling: the
/// paper's 0.2.
inline constexpr double kModelDropoutRate = 0.2;
/// Adam learning rate with which the eval harnesses train each task's
/// source model (in batches of TrainConfig's default 32).
inline constexpr double kSourceLearningRate = 1e-3;

/// Per-feature standardization (z-score) fitted on one dataset and applied
/// to others — fitted on source data and shipped with the source model, as
/// a deployed regressor would.
///
/// Only rank-2 (tabular) inputs are standardized feature-wise; rank-3/4
/// inputs are standardized globally (single mean/std), matching common
/// practice for sensor windows and images.
class Normalizer {
 public:
  /// Fits mean/std on `inputs`. Features with zero variance get std 1.
  void Fit(const Tensor& inputs);

  /// Applies the fitted transform; Fit must have been called.
  Tensor Apply(const Tensor& inputs) const;

  bool fitted() const { return fitted_; }
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& std() const { return std_; }

 private:
  bool fitted_ = false;
  bool per_feature_ = true;
  std::vector<double> mean_;
  std::vector<double> std_;
};

}  // namespace tasfar

#endif  // TASFAR_DATA_DATASET_H_
