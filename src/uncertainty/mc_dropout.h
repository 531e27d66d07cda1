#ifndef TASFAR_UNCERTAINTY_MC_DROPOUT_H_
#define TASFAR_UNCERTAINTY_MC_DROPOUT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/sequential.h"
#include "uncertainty/estimator.h"
#include "uncertainty/stochastic_passes.h"

namespace tasfar {

/// Monte-Carlo dropout predictor (Gal, 2016), the uncertainty estimator
/// used in the paper's experiments and the pipeline's default backend
/// (UncertaintyBackend::kMcDropout): the prediction is the mean of
/// `num_samples` stochastic forward passes (dropout active at inference)
/// and the uncertainty is the standard deviation across passes.
///
/// The wrapped model must contain at least one Dropout layer for the
/// uncertainty to be non-degenerate; models without dropout yield zero
/// uncertainty, which the predictor reports as-is.
///
/// Cost: the layers before the first Dropout (the deterministic trunk:
/// the conv backbone of the crowd and PDR models) give the same bytes on
/// every pass, so Predict runs them once per call and only the rest per
/// pass (RunStochasticPasses, uncertainty/stochastic_passes.h).
///
/// Parallelism and determinism (docs/THREADING.md): Predict fans the
/// trunk's batch slices, then the stochastic passes, across the global
/// thread pool. Pass s runs on the replica of its Workspace lane (created
/// lazily, reused across passes and Predict calls), and the trunk on
/// per-call copies of its layers; all share the wrapped model's parameter
/// buffers zero-copy (docs/MEMORY.md), and every use of a replica
/// re-shares any parameter whose buffer changed since — e.g. after
/// fine-tuning — so replicas never serve stale weights. Dropout streams
/// are reseeded from (seed, call index, pass index), which pins the masks
/// to the pass, not to the replica object, so for a fixed seed the k-th
/// Predict call on a predictor returns byte-identical results at every
/// thread count — while successive calls still draw fresh dropout
/// ensembles (the MC mean remains a statistical estimate). Predict never
/// mutates the wrapped model; concurrent Predict calls are safe as long as
/// nothing else mutates the model.
class McDropoutPredictor : public UncertaintyEstimator {
 public:
  /// `model` must outlive the predictor. num_samples >= 2. `seed` is the
  /// root of every dropout stream the predictor will ever use; two
  /// predictors with the same model, seed, and call history produce
  /// identical outputs.
  McDropoutPredictor(Sequential* model, size_t num_samples = 20,
                     size_t batch_size = 64, uint64_t seed = 0x5eedULL);

  McDropoutPredictor(const McDropoutPredictor&) = delete;
  McDropoutPredictor& operator=(const McDropoutPredictor&) = delete;

  /// Runs MC-dropout over all samples in `inputs` (first dim = samples).
  /// Handles any row count: n == 0 returns an empty vector, and n that is
  /// smaller than or not a multiple of the batch size is forwarded in one
  /// short final batch.
  std::vector<McPrediction> Predict(const Tensor& inputs) const override;

 private:
  Sequential* model_;
  size_t num_samples_;
  size_t batch_size_;
  uint64_t seed_;
  /// Stream index of the next Predict call; atomic so concurrent Predict
  /// calls draw disjoint dropout ensembles.
  mutable std::atomic<uint64_t> next_call_{0};
  /// Head replica of each pass lane, touched only under that lane's lock.
  mutable std::unique_ptr<Sequential> head_replicas_[kPassLanes];
};

}  // namespace tasfar

#endif  // TASFAR_UNCERTAINTY_MC_DROPOUT_H_
