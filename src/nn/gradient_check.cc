#include "nn/gradient_check.h"

#include <algorithm>
#include <cmath>

namespace tasfar {

GradCheckResult CheckGradients(Sequential* model, const Tensor& inputs,
                               const Tensor& targets, const LossFn& loss,
                               double epsilon) {
  TASFAR_CHECK(model != nullptr);
  TASFAR_CHECK(epsilon > 0.0);

  // Analytic gradients.
  Tensor pred = model->Forward(inputs, /*training=*/false);
  Tensor grad_pred;
  loss(pred, targets, &grad_pred, nullptr);
  model->ZeroGrads();
  model->BackwardParams(grad_pred);

  auto params = model->Params();
  auto grads = model->Grads();
  std::vector<Tensor> analytic;
  analytic.reserve(grads.size());
  for (Tensor* g : grads) analytic.push_back(*g);

  GradCheckResult result;
  for (size_t t = 0; t < params.size(); ++t) {
    Tensor& p = *params[t];
    for (size_t i = 0; i < p.size(); ++i) {
      const double original = p[i];
      p[i] = original + epsilon;
      const double loss_plus =
          loss(model->Forward(inputs, false), targets, nullptr, nullptr);
      p[i] = original - epsilon;
      const double loss_minus =
          loss(model->Forward(inputs, false), targets, nullptr, nullptr);
      p[i] = original;
      const double numeric = (loss_plus - loss_minus) / (2.0 * epsilon);
      const double abs_err = std::fabs(numeric - analytic[t][i]);
      const double denom =
          std::max({std::fabs(numeric), std::fabs(analytic[t][i]), 1e-8});
      result.max_abs_error = std::max(result.max_abs_error, abs_err);
      result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
      ++result.checked;
    }
  }
  return result;
}

}  // namespace tasfar
