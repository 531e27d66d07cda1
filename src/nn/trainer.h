#ifndef TASFAR_NN_TRAINER_H_
#define TASFAR_NN_TRAINER_H_

#include <functional>
#include <vector>

#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace tasfar {

/// Signature shared by the regression losses in nn/loss.h.
using LossFn = std::function<double(const Tensor& pred, const Tensor& target,
                                    Tensor* grad,
                                    const std::vector<double>* weights)>;

/// Configuration for supervised (or pseudo-supervised) training.
struct TrainConfig {
  size_t epochs = 50;
  size_t batch_size = 32;
  /// Stop when the relative epoch-to-epoch loss drop stays below this for
  /// `patience` consecutive epochs; 0 disables early stopping. This mirrors
  /// the paper's early-stop rule (Fig. 13: stop when the loss-dropping
  /// speed is significantly reduced).
  double early_stop_rel_drop = 0.0;
  size_t patience = 3;
  /// Forward-pass mode during training. Pre-training keeps the default
  /// (dropout active). Fine-tuning a trained model on a small set can
  /// disable it: with dropout active, fitting fixed targets also minimizes
  /// the dropout-induced output variance, which measurably shifts the
  /// deterministic function even when the targets are the model's own
  /// predictions.
  bool dropout_during_training = true;
  /// Global gradient-norm clip applied before each optimizer step
  /// (0 disables). Keeps SGD stable when the loss scale is large.
  double clip_grad_norm = 0.0;
};

/// Per-epoch training record.
struct EpochStats {
  size_t epoch = 0;
  double train_loss = 0.0;
};

/// Mini-batch trainer for Sequential regression models.
///
/// Supports per-sample loss weights (the credibility β_t of Eq. 22) and an
/// optional per-epoch callback used by the learning-curve benches. Inputs
/// of any rank are supported; the first dimension indexes samples.
class Trainer {
 public:
  /// `model` and `optimizer` must outlive the Trainer. The Rng passed to
  /// Fit draws each epoch's sample order (a fresh permutation) and nothing
  /// else.
  Trainer(Sequential* model, Optimizer* optimizer, LossFn loss);

  /// Trains on (inputs, targets); `sample_weights` (optional) has one entry
  /// per sample. Returns the per-epoch loss history (may be shorter than
  /// config.epochs if early stopping triggered).
  std::vector<EpochStats> Fit(
      const Tensor& inputs, const Tensor& targets, const TrainConfig& config,
      Rng* rng, const std::vector<double>* sample_weights = nullptr,
      const std::function<void(const EpochStats&)>& on_epoch = nullptr);

  /// Mean loss of the model on (inputs, targets) without updating weights.
  double Evaluate(const Tensor& inputs, const Tensor& targets);

 private:
  Sequential* model_;
  Optimizer* optimizer_;
  LossFn loss_;
};

/// Gathers the given samples along the first dimension of a tensor of any
/// rank (shared by trainers, baselines, and the TASFAR core).
Tensor GatherFirstDim(const Tensor& t, const std::vector<size_t>& indices);

/// Runs the whole tensor through the model in batches of `batch_size`
/// (bounding peak memory for conv nets) and concatenates the outputs.
/// A trailing partial batch is forwarded as-is; zero samples yield an
/// empty {0, 0} tensor without touching the model.
Tensor BatchedForward(Sequential* model, const Tensor& inputs,
                      bool training = false, size_t batch_size = 64);

/// Float32 counterpart of BatchedForward: stages each rank-2 batch through
/// the model's ForwardF32 (tensor/simd/dispatch.h) and widens the results
/// into the usual pooled double output, so downstream consumers are
/// unchanged. Requires model->SupportsF32(); callers gate on it plus
/// simd::ComputeModeIsF32() (see uncertainty/mc_dropout.cc).
Tensor BatchedForwardF32(Sequential* model, const Tensor& inputs,
                         bool training = false, size_t batch_size = 64);

}  // namespace tasfar

#endif  // TASFAR_NN_TRAINER_H_
