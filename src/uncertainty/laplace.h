#ifndef TASFAR_UNCERTAINTY_LAPLACE_H_
#define TASFAR_UNCERTAINTY_LAPLACE_H_

#include <vector>

#include "nn/sequential.h"
#include "uncertainty/estimator.h"

namespace tasfar {

/// Last-layer Laplace approximation (UncertaintyBackend::kLastLayerLaplace):
/// a Gauss–Newton posterior over the final Dense layer with closed-form
/// predictive variance — no stochastic passes at all, so it is the
/// cheapest backend (one deterministic forward plus an O(n·d² + d³)
/// solve, d = last-layer fan-in).
///
/// For each Predict call over inputs X the estimator extracts last-layer
/// features φ(x) (the activation feeding the final Dense, bias-augmented),
/// forms the Gauss–Newton precision H = I + ΦᵀΦ (unit prior precision)
/// over the call's own batch, and reports per-sample variance
/// φ(x)ᵀ H⁻¹ φ(x). Rows whose features sit far from the batch's bulk —
/// exactly the rows the source model extrapolates on — get large
/// variance, which is the signal the confidence split needs; the absolute
/// scale is calibrated away by the QS fit like every other backend's. The mean is the model's own
/// deterministic prediction, and the per-dimension stds are identical
/// (the MSE Gauss–Newton posterior factorizes per output with a shared
/// covariance).
///
/// Determinism: everything is a pure function of the weights and the
/// inputs — no RNG streams, no call index. Predict is byte-identical on
/// every call and at every TASFAR_NUM_THREADS (the only parallel piece is
/// the forward pass, which is deterministic by the threading contract;
/// the ΦᵀΦ accumulation and the Cholesky solve run serially). Predict
/// runs the wrapped model itself (activation caches mutate), so
/// concurrent calls are NOT safe.
class LastLayerLaplace : public UncertaintyEstimator {
 public:
  /// `model` must outlive the estimator and end in a Dense layer (the
  /// regression head the posterior is built over). Feature extraction runs
  /// whole-batch.
  explicit LastLayerLaplace(Sequential* model);

  LastLayerLaplace(const LastLayerLaplace&) = delete;
  LastLayerLaplace& operator=(const LastLayerLaplace&) = delete;

  std::vector<McPrediction> Predict(const Tensor& inputs) const override;

 private:
  Sequential* model_;
  /// Layer index of the final Dense; features are ForwardTo(·, cut_).
  size_t cut_;
};

}  // namespace tasfar

#endif  // TASFAR_UNCERTAINTY_LAPLACE_H_
