#include "baselines/uncertainty_sd_uda.h"

#include <algorithm>
#include <cmath>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace tasfar {

UncertaintySdUda::UncertaintySdUda(const UncertaintySdUdaOptions& options)
    : options_(options) {
  TASFAR_CHECK(options.learning_rate > 0.0);
}

std::unique_ptr<Sequential> UncertaintySdUda::Adapt(
    const Sequential& source_model, const UdaContext& context, Rng* rng) {
  TASFAR_CHECK(rng != nullptr);
  TASFAR_CHECK_MSG(context.target_inputs != nullptr,
                   "U-SFDA needs target inputs");
  std::unique_ptr<Sequential> model = source_model.CloneSequential();
  const Tensor& xt = *context.target_inputs;
  const size_t nt = xt.dim(0);
  if (nt == 0) return model;

  // One uncertainty pass over the frozen source weights: pseudo-labels
  // (predictive means) and scalar uncertainties.
  std::unique_ptr<UncertaintyEstimator> estimator =
      MakeEstimator(model.get(), options_.estimator);
  const std::vector<McPrediction> preds = estimator->Predict(xt);
  const size_t out_dim = preds[0].mean.size();
  Tensor pseudo({nt, out_dim});
  std::vector<double> uncertainty(nt, 0.0);
  double mean_u = 0.0;
  size_t finite = 0;
  for (size_t i = 0; i < nt; ++i) {
    bool ok = true;
    for (double v : preds[i].mean) ok = ok && std::isfinite(v);
    const double u = preds[i].ScalarUncertainty();
    ok = ok && std::isfinite(u);
    uncertainty[i] = ok ? u : -1.0;  // Sentinel: weight 0 below.
    if (!ok) continue;
    for (size_t d = 0; d < out_dim; ++d) pseudo.At(i, d) = preds[i].mean[d];
    mean_u += u;
    ++finite;
  }
  if (finite == 0) return model;  // Nothing usable; source model as-is.
  mean_u /= static_cast<double>(finite);

  // Soft confidence weights: 1 at zero uncertainty, 1/2 at the mean,
  // falling toward 0 in the tail. Poisoned rows get exactly 0.
  std::vector<double> weights(nt, 0.0);
  for (size_t i = 0; i < nt; ++i) {
    if (uncertainty[i] < 0.0) continue;
    weights[i] = mean_u <= 0.0 ? 1.0 : 1.0 / (1.0 + uncertainty[i] / mean_u);
  }

  const size_t batch = std::min(kUdaBatchSize, nt);
  // SGD: fine-tuning from a trained optimum (see AdaptationTrainConfig).
  Sgd optimizer(options_.learning_rate, /*momentum=*/0.9);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const std::vector<size_t> order = rng->Permutation(nt);
    for (size_t start = 0; start + batch <= nt; start += batch) {
      std::vector<size_t> idx(order.begin() + start,
                              order.begin() + start + batch);
      Tensor inputs = GatherFirstDim(xt, idx);
      Tensor targets = GatherFirstDim(pseudo, idx);
      std::vector<double> w(batch);
      for (size_t b = 0; b < batch; ++b) w[b] = weights[idx[b]];
      Tensor pred = model->Forward(inputs, /*training=*/true);
      Tensor grad;
      loss::Mse(pred, targets, &grad, &w);
      model->ZeroGrads();
      model->BackwardParams(grad);
      optimizer.Step(model->Params(), model->Grads());
    }
  }
  return model;
}

}  // namespace tasfar
