#include "baselines/upl_uda.h"

#include <algorithm>
#include <cmath>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace tasfar {

namespace {

/// Fraction of the target set retained for self-training — the
/// lowest-uncertainty rows.
constexpr double kKeepFraction = 0.5;

}  // namespace

UplUda::UplUda(const UplUdaOptions& options) : options_(options) {
  TASFAR_CHECK(options.learning_rate > 0.0);
}

std::unique_ptr<Sequential> UplUda::Adapt(const Sequential& source_model,
                                          const UdaContext& context,
                                          Rng* rng) {
  TASFAR_CHECK(rng != nullptr);
  TASFAR_CHECK_MSG(context.target_inputs != nullptr,
                   "UPL needs target inputs");
  std::unique_ptr<Sequential> model = source_model.CloneSequential();
  const Tensor& xt = *context.target_inputs;
  const size_t nt = xt.dim(0);
  if (nt == 0) return model;

  std::unique_ptr<UncertaintyEstimator> estimator =
      MakeEstimator(model.get(), options_.estimator);
  const std::vector<McPrediction> preds = estimator->Predict(xt);
  const size_t out_dim = preds[0].mean.size();

  // Rank the finite rows by uncertainty; keep the most confident
  // kKeepFraction of them (at least one).
  std::vector<size_t> usable;
  usable.reserve(nt);
  for (size_t i = 0; i < nt; ++i) {
    bool ok = std::isfinite(preds[i].ScalarUncertainty());
    for (double v : preds[i].mean) ok = ok && std::isfinite(v);
    if (ok) usable.push_back(i);
  }
  if (usable.empty()) return model;  // Nothing usable; source model as-is.
  std::stable_sort(usable.begin(), usable.end(), [&](size_t a, size_t b) {
    return preds[a].ScalarUncertainty() < preds[b].ScalarUncertainty();
  });
  const size_t kept = std::max<size_t>(
      1, static_cast<size_t>(kKeepFraction *
                             static_cast<double>(usable.size())));
  usable.resize(kept);

  Tensor inputs = GatherFirstDim(xt, usable);
  Tensor pseudo({kept, out_dim});
  for (size_t i = 0; i < kept; ++i) {
    for (size_t d = 0; d < out_dim; ++d) {
      pseudo.At(i, d) = preds[usable[i]].mean[d];
    }
  }

  const size_t batch = std::min(kUdaBatchSize, kept);
  // SGD: fine-tuning from a trained optimum (see AdaptationTrainConfig).
  Sgd optimizer(options_.learning_rate, /*momentum=*/0.9);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const std::vector<size_t> order = rng->Permutation(kept);
    for (size_t start = 0; start + batch <= kept; start += batch) {
      std::vector<size_t> idx(order.begin() + start,
                              order.begin() + start + batch);
      Tensor batch_inputs = GatherFirstDim(inputs, idx);
      Tensor batch_targets = GatherFirstDim(pseudo, idx);
      Tensor pred = model->Forward(batch_inputs, /*training=*/true);
      Tensor grad;
      loss::Mse(pred, batch_targets, &grad, nullptr);
      model->ZeroGrads();
      model->BackwardParams(grad);
      optimizer.Step(model->Params(), model->Grads());
    }
  }
  return model;
}

}  // namespace tasfar
