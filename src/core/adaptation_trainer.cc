#include "core/adaptation_trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace tasfar {

AdaptationTrainer::AdaptationTrainer(const AdaptationTrainConfig& config)
    : config_(config) {
  TASFAR_CHECK(config.learning_rate > 0.0);
}

bool AllParamsFinite(Sequential* model) {
  for (Tensor* p : model->Params()) {
    if (!p->AllFinite()) return false;
  }
  return true;
}

AdaptationResult AdaptationTrainer::Run(
    const Sequential& source_model, const Tensor& uncertain_inputs,
    const std::vector<PseudoLabel>& pseudo_labels,
    const Tensor& confident_inputs, const Tensor& confident_preds,
    Rng* rng) const {
  TASFAR_CHECK(rng != nullptr);
  TASFAR_TRACE_SPAN("fine_tune");
  const size_t n_u = uncertain_inputs.rank() == 0 ? 0 : uncertain_inputs.dim(0);
  TASFAR_CHECK(pseudo_labels.size() == n_u);
  const bool use_confident =
      config_.include_confident && confident_inputs.rank() != 0 &&
      confident_inputs.dim(0) > 0;
  const size_t n_c = use_confident ? confident_inputs.dim(0) : 0;
  TASFAR_CHECK_MSG(n_u + n_c > 0, "nothing to adapt on");

  // Determine per-sample shapes from whichever set is non-empty.
  const Tensor& shape_ref = n_u > 0 ? uncertain_inputs : confident_inputs;
  std::vector<size_t> in_shape = shape_ref.shape();
  in_shape[0] = n_u + n_c;
  const size_t out_dim =
      n_u > 0 ? pseudo_labels[0].value.size() : confident_preds.dim(1);

  Tensor inputs(in_shape);
  Tensor targets({n_u + n_c, out_dim});
  std::vector<double> weights(n_u + n_c, 0.0);

  size_t per_sample = 1;
  for (size_t d = 1; d < in_shape.size(); ++d) per_sample *= in_shape[d];

  for (size_t i = 0; i < n_u; ++i) {
    std::copy(uncertain_inputs.data() + i * per_sample,
              uncertain_inputs.data() + (i + 1) * per_sample,
              inputs.data() + i * per_sample);
    TASFAR_CHECK(pseudo_labels[i].value.size() == out_dim);
    for (size_t d = 0; d < out_dim; ++d) {
      targets.At(i, d) = pseudo_labels[i].value[d];
    }
    weights[i] = pseudo_labels[i].credibility;
  }
  if (config_.normalize_beta && n_u > 0) {
    double mean_beta = 0.0;
    for (size_t i = 0; i < n_u; ++i) mean_beta += weights[i];
    mean_beta /= static_cast<double>(n_u);
    if (mean_beta > 0.0) {
      for (size_t i = 0; i < n_u; ++i) weights[i] /= mean_beta;
    }
  }
  if (use_confident) {
    TASFAR_CHECK(confident_preds.rank() == 2 &&
                 confident_preds.dim(0) == n_c &&
                 confident_preds.dim(1) == out_dim);
    for (size_t i = 0; i < n_c; ++i) {
      std::copy(confident_inputs.data() + i * per_sample,
                confident_inputs.data() + (i + 1) * per_sample,
                inputs.data() + (n_u + i) * per_sample);
      for (size_t d = 0; d < out_dim; ++d) {
        targets.At(n_u + i, d) = confident_preds.At(i, d);
      }
      weights[n_u + i] = 1.0;  // Replay samples train at unit weight.
    }
  }

  AdaptationResult result;
  result.model = source_model.CloneSequential();
  std::unique_ptr<Optimizer> optimizer;
  if (config_.use_sgd) {
    optimizer = std::make_unique<Sgd>(config_.learning_rate,
                                      /*momentum=*/0.9);
  } else {
    optimizer = std::make_unique<Adam>(config_.learning_rate);
  }
  Trainer trainer(result.model.get(), optimizer.get(),
                  [](const Tensor& pred, const Tensor& target, Tensor* grad,
                     const std::vector<double>* w) {
                    return loss::Mse(pred, target, grad, w);
                  });
  // Snapshot the weights at every new best (finite) epoch loss. Healthy
  // early-stopped descent improves nearly every epoch, so this costs one
  // parameter copy per improvement; it buys the ability to roll a
  // diverged run back to its best state instead of shipping garbage.
  double best_loss = std::numeric_limits<double>::infinity();
  std::vector<Tensor> best_params;
  Sequential* const model_ptr = result.model.get();
  result.history = trainer.Fit(
      inputs, targets, config_.train, rng, &weights,
      [&](const EpochStats& st) {
        if (!std::isfinite(st.train_loss) || st.train_loss >= best_loss) {
          return;
        }
        if (!AllParamsFinite(model_ptr)) return;
        best_loss = st.train_loss;
        best_params.clear();
        for (Tensor* p : model_ptr->Params()) best_params.push_back(*p);
      });

  // Divergence: the final epoch loss is non-finite, a parameter ends
  // non-finite, or the final loss exceeds 2× the best epoch loss. 2.0
  // leaves the normal early-stopped descent untouched (the loss would have
  // to double from its best to trip it). The ratio check also needs the
  // final loss to exceed the best by more than 1e-8: fully converged runs
  // oscillate in floating-point noise around ~0 loss, where any ratio is
  // meaningless (1e-17 → 2e-15 is "100× worse" and utterly benign). A
  // diverged run rolls back to the best-epoch snapshot when one exists.
  const double final_loss =
      result.history.empty() ? std::numeric_limits<double>::quiet_NaN()
                             : result.history.back().train_loss;
  result.diverged = !std::isfinite(final_loss) ||
                    !AllParamsFinite(model_ptr) ||
                    (std::isfinite(best_loss) && final_loss > 2.0 * best_loss &&
                     final_loss - best_loss > 1e-8);
  if (TASFAR_FAILPOINT("adaptation.diverge")) result.diverged = true;
  if (result.diverged && !best_params.empty()) {
    auto params = model_ptr->Params();
    for (size_t i = 0; i < params.size(); ++i) *params[i] = best_params[i];
    result.rolled_back = true;
    TASFAR_LOG(kWarning) << "adaptation diverged (final loss " << final_loss
                         << " vs best " << best_loss
                         << "); rolled back to best-epoch weights";
    if (obs::MetricsEnabled()) {
      static obs::Counter* const kRollback =
          obs::Registry::Get().GetCounter("tasfar.adaptation.rollback");
      kRollback->Increment();
    }
  }
  if (obs::MetricsEnabled() && !result.history.empty()) {
    static obs::Gauge* const kEpochs =
        obs::Registry::Get().GetGauge("tasfar.adaptation.epochs");
    static obs::Gauge* const kFinalLoss =
        obs::Registry::Get().GetGauge("tasfar.adaptation.final_loss");
    static obs::Gauge* const kEarlyStop =
        obs::Registry::Get().GetGauge("tasfar.adaptation.early_stop_epoch");
    kEpochs->Set(static_cast<double>(result.history.size()));
    kFinalLoss->Set(result.history.back().train_loss);
    // 0 means the full budget ran; otherwise the 0-based epoch where early
    // stopping triggered.
    kEarlyStop->Set(result.history.size() < config_.train.epochs
                        ? static_cast<double>(result.history.size())
                        : 0.0);
  }
  return result;
}

}  // namespace tasfar
