#include "uncertainty/ensemble.h"

#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/dispatch.h"
#include "uncertainty/stochastic_passes.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace tasfar {

DeepEnsemble::DeepEnsemble(std::vector<std::unique_ptr<Sequential>> members,
                           uint64_t seed, size_t batch_size)
    : members_(std::move(members)), seed_(seed), batch_size_(batch_size) {}

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
  return DeepEnsemble(std::move(members), seed, batch_size);
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

  // The members are structural clones of one source model.
  const bool use_f32 =
      simd::ComputeModeIsF32() && members_[0]->SupportsF32();

  // One pass per member, member k on lane k. The members share every
  // weight with the source, so they share one trunk run (from member 0's
  // weights), and each re-pins its stochastic streams to MixSeed(seed_, k)
  // before its head pass.
  PassPlan plan;
  plan.trunk_source = members_[0].get();
  plan.cut = DeterministicTrunkLength(members_[0].get());
  plan.num_passes = members_.size();
  plan.batch_size = batch_size_;
  plan.training = true;
  plan.use_f32 = use_f32;
  std::vector<McPrediction> out = RunStochasticPasses(
      inputs, plan,
      [&](size_t k) {
        Sequential* member = members_[k].get();
        member->ReseedStochastic(MixSeed(seed_, k));
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

}  // namespace tasfar
