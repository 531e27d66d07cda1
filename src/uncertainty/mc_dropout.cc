#include "uncertainty/mc_dropout.h"

#include <limits>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/dispatch.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace tasfar {
namespace {

/// Re-shares every parameter of `replica` whose buffer no longer matches
/// the model's. Replicas only ever Forward, so their parameters never
/// detach; a mismatch means the model was written (e.g. fine-tuned) since,
/// and in the steady state this loop is pure pointer compares.
void ShareParams(Sequential* model, Sequential* replica) {
  std::vector<Tensor*> dst = replica->Params();
  std::vector<Tensor*> src = model->Params();
  TASFAR_CHECK(dst.size() == src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    if (!dst[i]->SharesBufferWith(*src[i])) *dst[i] = *src[i];
  }
}

}  // namespace

McDropoutPredictor::McDropoutPredictor(Sequential* model, size_t num_samples,
                                       size_t batch_size, uint64_t seed)
    : model_(model),
      num_samples_(num_samples),
      batch_size_(batch_size),
      seed_(seed) {
  TASFAR_CHECK(model != nullptr);
  TASFAR_CHECK_MSG(num_samples >= 2, "MC dropout needs >= 2 samples");
  TASFAR_CHECK(batch_size > 0);
}

std::vector<McPrediction> McDropoutPredictor::Predict(
    const Tensor& inputs) const {
  const size_t n = inputs.dim(0);
  if (n == 0) return {};
  TASFAR_TRACE_SPAN("mc_dropout.predict");
  const bool metrics = obs::MetricsEnabled();
  static obs::Histogram* const kPassMs = obs::Registry::Get().GetHistogram(
      "tasfar.mc_dropout.pass_ms", obs::Histogram::LatencyEdgesMs());
  static obs::Counter* const kPredictions =
      obs::Registry::Get().GetCounter("tasfar.mc_dropout.predictions");
  static obs::Counter* const kPasses =
      obs::Registry::Get().GetCounter("tasfar.mc_dropout.passes");
  static obs::Counter* const kF32Passes =
      obs::Registry::Get().GetCounter("tasfar.mc_dropout.f32_passes");

  // Fast path: when the process opted into the f32 compute mode
  // (TASFAR_KERNEL_BACKEND / simd::SetComputeMode) and every layer
  // supports it, stochastic passes run through the float32 kernel
  // dispatcher. Same replica pinning, same RNG stream consumption —
  // tests/golden_float/ bounds the numerical divergence.
  const bool use_f32 = simd::ComputeModeIsF32() && model_->SupportsF32();

  // Pass s reseeds its lane's replica to (root seed, call index, s), so
  // its dropout masks are pinned to the pass, not to the replica object.
  const uint64_t call_seed =
      MixSeed(seed_, next_call_.fetch_add(1, std::memory_order_relaxed));
  PassPlan plan;
  plan.trunk_source = model_;
  plan.cut = DeterministicTrunkLength(model_);
  plan.num_passes = num_samples_;
  plan.batch_size = batch_size_;
  plan.training = true;
  plan.use_f32 = use_f32;
  std::vector<McPrediction> out = RunStochasticPasses(
      inputs, plan,
      [&](size_t s) {
        std::unique_ptr<Sequential>& replica = head_replicas_[s % kPassLanes];
        if (replica == nullptr) {
          // Cloning shares every parameter buffer with the model
          // (copy-on-write), so this is a structural copy, not a weight
          // copy.
          replica = model_->CloneSequential();
        } else {
          ShareParams(model_, replica.get());
        }
        replica->ReseedStochastic(MixSeed(call_seed, s));
        return replica.get();
      },
      metrics ? kPassMs : nullptr);
  if (metrics) {
    kPredictions->Increment(n);
    kPasses->Increment(num_samples_);
    if (use_f32) kF32Passes->Increment(num_samples_);
  }
  // Chaos injection: one prediction comes back poisoned, as a corrupted
  // pass would leave it. Consumers must drop it, not crash on it.
  if (TASFAR_FAILPOINT("mc_dropout.poison")) {
    out[0].mean[0] = std::numeric_limits<double>::quiet_NaN();
    out[0].std[0] = std::numeric_limits<double>::quiet_NaN();
  }
  return out;
}

}  // namespace tasfar
