#include "uncertainty/ensemble.h"

#include <limits>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/dispatch.h"
#include "uncertainty/stochastic_passes.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace tasfar {
DeepEnsemble::DeepEnsemble(
    std::vector<std::unique_ptr<Sequential>> members)
    : members_(std::move(members)) {
  TASFAR_CHECK_MSG(members_.size() >= 2,
                   "an ensemble needs at least two members");
  for (const auto& m : members_) TASFAR_CHECK(m != nullptr);
}

DeepEnsemble DeepEnsemble::Train(
    const std::function<std::unique_ptr<Sequential>(Rng*)>& builder,
    const Tensor& inputs, const Tensor& targets, size_t num_members,
    const TrainConfig& config, double learning_rate, Rng* rng) {
  TASFAR_CHECK(rng != nullptr);
  TASFAR_CHECK(num_members >= 2);
  std::vector<std::unique_ptr<Sequential>> members;
  members.reserve(num_members);
  for (size_t k = 0; k < num_members; ++k) {
    Rng member_rng = rng->Fork(k + 1);
    std::unique_ptr<Sequential> model = builder(&member_rng);
    TASFAR_CHECK(model != nullptr);
    Adam optimizer(learning_rate);
    Trainer trainer(model.get(), &optimizer,
                    [](const Tensor& p, const Tensor& t, Tensor* g,
                       const std::vector<double>* w) {
                      return loss::Mse(p, t, g, w);
                    });
    Rng train_rng = rng->Fork(1000 + k);
    trainer.Fit(inputs, targets, config, &train_rng);
    members.push_back(std::move(model));
  }
  return DeepEnsemble(std::move(members));
}

DeepEnsemble DeepEnsemble::FromSource(Sequential* source, size_t num_members,
                                      uint64_t seed, size_t batch_size) {
  TASFAR_CHECK(source != nullptr);
  TASFAR_CHECK_MSG(num_members >= 2,
                   "an ensemble needs at least two members");
  TASFAR_CHECK(batch_size > 0);
  std::vector<std::unique_ptr<Sequential>> members;
  members.reserve(num_members);
  for (size_t k = 0; k < num_members; ++k) {
    // Cloning shares every parameter buffer with the source
    // (copy-on-write), so this is a structural copy, not a weight copy.
    members.push_back(source->CloneSequential());
  }
  DeepEnsemble ensemble(std::move(members));
  ensemble.stochastic_members_ = true;
  ensemble.seed_ = seed;
  ensemble.batch_size_ = batch_size;
  return ensemble;
}

std::vector<McPrediction> DeepEnsemble::Predict(const Tensor& inputs) const {
  const size_t n = inputs.dim(0);
  if (n == 0) return {};
  TASFAR_TRACE_SPAN("ensemble.predict");
  const bool metrics = obs::MetricsEnabled();
  static obs::Histogram* const kPassMs = obs::Registry::Get().GetHistogram(
      "tasfar.uncertainty.ensemble.pass_ms", obs::Histogram::LatencyEdgesMs());
  static obs::Counter* const kPredictions = obs::Registry::Get().GetCounter(
      "tasfar.uncertainty.ensemble.predictions");
  static obs::Counter* const kPasses =
      obs::Registry::Get().GetCounter("tasfar.uncertainty.ensemble.passes");

  bool use_f32 = simd::ComputeModeIsF32();
  for (size_t k = 0; use_f32 && k < members_.size(); ++k) {
    use_f32 = members_[k]->SupportsF32();
  }

  // One pass per member, member k on lane k. Source-derived members share
  // every weight with the source, so they share one trunk run (from
  // member 0's weights), and each re-pins its stochastic streams to
  // MixSeed(seed_, k) before its head pass. Trained members differ in
  // every weight, so they run whole (cut 0), dropout off.
  PassPlan plan;
  plan.num_passes = members_.size();
  plan.batch_size = batch_size_;
  plan.training = stochastic_members_;
  plan.use_f32 = use_f32;
  if (stochastic_members_) {
    plan.trunk_source = members_[0].get();
    plan.cut = DeterministicTrunkLength(members_[0].get());
  }
  std::vector<McPrediction> out = RunStochasticPasses(
      inputs, plan,
      [&](size_t k) {
        Sequential* member = members_[k].get();
        if (stochastic_members_) member->ReseedStochastic(MixSeed(seed_, k));
        return member;
      },
      metrics ? kPassMs : nullptr);
  if (metrics) {
    kPredictions->Increment(n);
    kPasses->Increment(members_.size());
  }
  // Chaos injection: one prediction comes back poisoned, as a corrupted
  // member pass would leave it. Consumers must drop it, not crash on it.
  if (TASFAR_FAILPOINT("ensemble.poison")) {
    out[0].mean[0] = std::numeric_limits<double>::quiet_NaN();
    out[0].std[0] = std::numeric_limits<double>::quiet_NaN();
  }
  return out;
}

Tensor DeepEnsemble::PredictMean(const Tensor& inputs) const {
  if (inputs.dim(0) == 0) return Tensor({0, 0});
  Tensor sum;
  for (size_t k = 0; k < members_.size(); ++k) {
    Tensor pass = BatchedForward(members_[k].get(), inputs,
                                 /*training=*/false, batch_size_);
    if (k == 0) {
      sum = pass;
    } else {
      sum += pass;
    }
  }
  return sum / static_cast<double>(members_.size());
}

void DeepEnsemble::Reseed(uint64_t seed) { seed_ = seed; }

std::unique_ptr<UncertaintyEstimator> DeepEnsemble::Clone(
    Sequential* model) const {
  if (stochastic_members_) {
    return std::make_unique<DeepEnsemble>(
        FromSource(model, members_.size(), seed_, batch_size_));
  }
  std::vector<std::unique_ptr<Sequential>> copies;
  copies.reserve(members_.size());
  for (const auto& m : members_) copies.push_back(m->CloneSequential());
  return std::make_unique<DeepEnsemble>(std::move(copies));
}

}  // namespace tasfar
