#ifndef TASFAR_CORE_ADAPTATION_TRAINER_H_
#define TASFAR_CORE_ADAPTATION_TRAINER_H_

#include <memory>
#include <vector>

#include "core/pseudo_label_generator.h"
#include "nn/trainer.h"

namespace tasfar {

/// Configuration of the adaptation fine-tuning stage (Eq. 22).
struct AdaptationTrainConfig {
  TrainConfig train{.epochs = 100,
                    .batch_size = 32,
                    .early_stop_rel_drop = 0.005,
                    .patience = 8,
                    // See TrainConfig: dropout-active fine-tuning shifts
                    // the deterministic function even under pure replay.
                    .dropout_during_training = false,
                    // SGD fine-tuning across tasks with very different
                    // label scales needs a gradient-norm guard.
                    .clip_grad_norm = 5.0};
  double learning_rate = 5e-3;
  /// Fine-tuning starts at a trained optimum where most gradients are
  /// small; SGD's step scales with the gradient, so replay samples whose
  /// targets the model already fits produce no drift. Adam's
  /// sign-normalized steps walk every parameter by ~lr per step even at
  /// near-zero gradient, which measurably degrades the confident windows —
  /// hence SGD+momentum is the default here (Adam remains available).
  bool use_sgd = true;
  /// Include the confident data with ŷ = ỹ (Section III-D: replay against
  /// catastrophic forgetting).
  bool include_confident = true;
  /// Rescale the β_t of the uncertain set to mean 1. Eq. 22 is a weighted
  /// sum, so a global scale on β is indistinguishable from a learning-rate
  /// change; normalizing keeps the optimizer stable regardless of the
  /// density map's absolute cell values while preserving the *relative*
  /// credibility ordering that Figs. 11-12 validate.
  bool normalize_beta = true;
};

/// Result of adaptation training.
struct AdaptationResult {
  std::unique_ptr<Sequential> model;  ///< The target model f_θt.
  std::vector<EpochStats> history;    ///< Weighted-loss learning curve.
  /// Training diverged (the rule is in AdaptationTrainer::Run).
  bool diverged = false;
  /// `model` holds the best-epoch snapshot, not the final weights. Only
  /// possible when `diverged`; when divergence hits with no finite
  /// snapshot to return to, the caller should discard `model` entirely
  /// (core/tasfar.cc falls back to the source model).
  bool rolled_back = false;
};

/// True when every parameter of `model` is finite: AdaptationTrainer's
/// snapshot and divergence check, and Tasfar::Adapt's final guard.
bool AllParamsFinite(Sequential* model);

/// Fine-tunes a clone of the source model on pseudo-labeled uncertain data
/// (weighted by credibility) plus confident-data replay, with the paper's
/// loss-drop early-stopping rule.
class AdaptationTrainer {
 public:
  /// Captures the config by value; the instance is stateless otherwise.
  explicit AdaptationTrainer(const AdaptationTrainConfig& config);

  /// `uncertain_inputs` {n_u, ...} with one PseudoLabel each;
  /// `confident_inputs` {n_c, ...} with their deterministic predictions
  /// `confident_preds` {n_c, out_dim} (pass empty tensors to skip replay).
  /// Either set may be empty, but not both.
  AdaptationResult Run(const Sequential& source_model,
                       const Tensor& uncertain_inputs,
                       const std::vector<PseudoLabel>& pseudo_labels,
                       const Tensor& confident_inputs,
                       const Tensor& confident_preds, Rng* rng) const;

 private:
  AdaptationTrainConfig config_;
};

}  // namespace tasfar

#endif  // TASFAR_CORE_ADAPTATION_TRAINER_H_
