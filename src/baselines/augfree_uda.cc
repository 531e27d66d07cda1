#include "baselines/augfree_uda.h"

#include <algorithm>
#include <cmath>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace tasfar {

AugfreeUda::AugfreeUda(const AugfreeUdaOptions& options) : options_(options) {
  TASFAR_CHECK(options.learning_rate > 0.0);
  TASFAR_CHECK(options.perturbation_scale >= 0.0);
}

std::unique_ptr<Sequential> AugfreeUda::Adapt(const Sequential& source_model,
                                              const UdaContext& context,
                                              Rng* rng) {
  TASFAR_CHECK(rng != nullptr);
  TASFAR_CHECK_MSG(context.target_inputs != nullptr,
                   "AUGfree needs target inputs");
  std::unique_ptr<Sequential> model = source_model.CloneSequential();
  const Tensor& xt = *context.target_inputs;
  const size_t nt = xt.dim(0);
  const size_t batch = std::min(kUdaBatchSize, nt);
  TASFAR_CHECK(batch > 0);

  // Global input std of the target set drives the perturbation magnitude.
  double mean = xt.Mean();
  double var = 0.0;
  for (size_t i = 0; i < xt.size(); ++i) {
    var += (xt[i] - mean) * (xt[i] - mean);
  }
  var /= static_cast<double>(xt.size());
  const double noise_std =
      options_.perturbation_scale * std::sqrt(std::max(var, 1e-12));

  // SGD: fine-tuning from a trained optimum (see AdaptationTrainConfig).
  Sgd optimizer(options_.learning_rate, /*momentum=*/0.9);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const std::vector<size_t> order = rng->Permutation(nt);
    for (size_t start = 0; start + batch <= nt; start += batch) {
      std::vector<size_t> idx(order.begin() + start,
                              order.begin() + start + batch);
      Tensor clean = GatherFirstDim(xt, idx);
      // Consistency target: the model's own clean prediction (detached).
      Tensor target = model->Forward(clean, /*training=*/false);
      Tensor perturbed = clean;
      for (size_t i = 0; i < perturbed.size(); ++i) {
        perturbed[i] += rng->Normal(0.0, noise_std);
      }
      Tensor pred = model->Forward(perturbed, /*training=*/true);
      Tensor grad;
      loss::Mse(pred, target, &grad, nullptr);
      model->ZeroGrads();
      model->BackwardParams(grad);
      optimizer.Step(model->Params(), model->Grads());
    }
  }
  return model;
}

}  // namespace tasfar
