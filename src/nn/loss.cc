#include "nn/loss.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/guard.h"
#include "tensor/workspace.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace tasfar::loss {

namespace {

void CheckShapes(const Tensor& pred, const Tensor& target,
                 const std::vector<double>* weights) {
  TASFAR_CHECK_MSG(pred.rank() == 2, "losses expect {batch, out_dim} tensors");
  TASFAR_CHECK(pred.SameShape(target));
  TASFAR_CHECK(pred.dim(0) > 0);
  if (weights != nullptr) {
    TASFAR_CHECK_MSG(weights->size() == pred.dim(0),
                     "one weight per batch row required");
  }
}

double WeightOf(const std::vector<double>* weights, size_t row) {
  return weights == nullptr ? 1.0 : (*weights)[row];
}

/// Detection-only guard at the loss boundary: a NaN that slipped through
/// the forward pass surfaces here first, so report it (tasfar.guard.*)
/// and hand the poisoned value back — the trainer skips the batch.
double GuardLoss(double total, Tensor* grad) {
  guard::CheckFiniteValue(total, "loss_nonfinite");
  if (grad != nullptr) guard::CheckFinite(*grad, "loss_grad_nonfinite");
  return total;
}

}  // namespace

double Mse(const Tensor& pred, const Tensor& target, Tensor* grad,
           const std::vector<double>* weights) {
  CheckShapes(pred, target, weights);
  const size_t batch = pred.dim(0), dims = pred.dim(1);
  const double inv_batch = 1.0 / static_cast<double>(batch);
  if (grad != nullptr) {
    // Every element is assigned below.
    *grad = Workspace::ThreadLocal().NewTensor(pred.shape());
  }
  double total = 0.0;
  for (size_t i = 0; i < batch; ++i) {
    const double w = WeightOf(weights, i);
    for (size_t j = 0; j < dims; ++j) {
      const double d = pred.At(i, j) - target.At(i, j);
      total += w * d * d;
      if (grad != nullptr) grad->At(i, j) = 2.0 * w * d * inv_batch;
    }
  }
  if (TASFAR_FAILPOINT("loss.poison")) {
    total = std::numeric_limits<double>::quiet_NaN();
    if (grad != nullptr) {
      grad->At(0, 0) = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return GuardLoss(total * inv_batch, grad);
}

double BinaryCrossEntropy(const Tensor& prob, const Tensor& target,
                          Tensor* grad) {
  TASFAR_CHECK(prob.rank() == 2 && prob.SameShape(target));
  const size_t batch = prob.dim(0), dims = prob.dim(1);
  TASFAR_CHECK(batch > 0);
  const double inv_batch = 1.0 / static_cast<double>(batch);
  const double eps = 1e-12;
  if (grad != nullptr) {
    // Every element is assigned below.
    *grad = Workspace::ThreadLocal().NewTensor(prob.shape());
  }
  double total = 0.0;
  for (size_t i = 0; i < batch; ++i) {
    for (size_t j = 0; j < dims; ++j) {
      const double p = std::clamp(prob.At(i, j), eps, 1.0 - eps);
      const double y = target.At(i, j);
      TASFAR_CHECK_MSG(y == 0.0 || y == 1.0, "BCE targets must be 0/1");
      total += -(y * std::log(p) + (1.0 - y) * std::log(1.0 - p));
      if (grad != nullptr) {
        grad->At(i, j) = (p - y) / (p * (1.0 - p)) * inv_batch;
      }
    }
  }
  return total * inv_batch;
}

}  // namespace tasfar::loss
