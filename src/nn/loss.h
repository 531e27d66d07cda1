#ifndef TASFAR_NN_LOSS_H_
#define TASFAR_NN_LOSS_H_

#include <vector>

#include "tensor/tensor.h"

namespace tasfar {

/// Regression losses. Each function returns the scalar loss averaged over
/// the batch and, when `grad` is non-null, writes d loss / d pred into it.
///
/// `weights`, when provided, holds one non-negative weight per batch row
/// (the paper's credibility β_t, Eq. 22); the loss is the weighted mean
/// with weights normalized by the batch size (not the weight sum), matching
/// Eq. 22's plain weighted sum up to a constant factor.
namespace loss {

/// Mean squared error: mean over batch of |pred - target|^2 (summed over
/// output dims).
double Mse(const Tensor& pred, const Tensor& target, Tensor* grad = nullptr,
           const std::vector<double>* weights = nullptr);

/// Binary cross-entropy on sigmoid probabilities in (0,1), used by the
/// domain discriminator of the adversarial UDA baseline. `target` entries
/// must be 0 or 1.
double BinaryCrossEntropy(const Tensor& prob, const Tensor& target,
                          Tensor* grad = nullptr);

}  // namespace loss
}  // namespace tasfar

#endif  // TASFAR_NN_LOSS_H_
