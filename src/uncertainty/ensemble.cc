#include "uncertainty/ensemble.h"

#include <cmath>
#include <limits>
#include <mutex>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/dispatch.h"
#include "tensor/workspace.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tasfar {
namespace {

/// Member k of every ensemble runs its pass on lane k % kMemberLanes: the
/// lane's Workspace serves every buffer of the pass, including the
/// activations the member caches until its next pass. A member thus
/// returns its old buffers to the pool its next pass draws from, whichever
/// worker runs it, so a warm Predict allocates nothing (a worker's own
/// pool would have to grow to the most members it was ever handed in one
/// call). Lanes are shared by every ensemble, so one set of free buffers
/// per lane serves them all; the lock keeps a lane to one pass at a time
/// when two ensembles Predict concurrently. Eight lanes hold the default
/// five members (TasfarOptions::ensemble_members) without two members of
/// one ensemble taking turns on a lane.
constexpr size_t kMemberLanes = 8;

struct MemberLane {
  std::mutex mu;
  Workspace workspace;
};

MemberLane& LaneOf(size_t member) {
  static MemberLane lanes[kMemberLanes];
  return lanes[member % kMemberLanes];
}

}  // namespace

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
  std::vector<McPrediction> out(n);
  if (n == 0) return out;
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

  // One forward pass per member, each member touched by exactly one task.
  // Source-derived members re-pin their stochastic streams to
  // MixSeed(seed_, k) before every pass — which thread runs the pass is
  // irrelevant to its output. Tasks only read `inputs` and write disjoint
  // `passes` slots, so the fan-out is race-free and the reduction below —
  // done serially in ascending member order — is byte-identical at every
  // thread count. Each pass runs on its member's lane (LaneOf).
  const size_t num_members = members_.size();
  std::vector<Tensor> passes(num_members);
  ParallelFor(0, num_members, /*grain=*/1, [&](size_t k) {
    MemberLane& lane = LaneOf(k);
    const std::lock_guard<std::mutex> lock(lane.mu);
    const Workspace::Scope scope(&lane.workspace);
    const uint64_t t0 = metrics ? obs::MonotonicMicros() : 0;
    Sequential* member = members_[k].get();
    if (stochastic_members_) member->ReseedStochastic(MixSeed(seed_, k));
    passes[k] = use_f32 ? BatchedForwardF32(member, inputs,
                                            stochastic_members_, batch_size_)
                        : BatchedForward(member, inputs, stochastic_members_,
                                         batch_size_);
    if (metrics) {
      kPassMs->Observe(
          static_cast<double>(obs::MonotonicMicros() - t0) / 1000.0);
    }
  });
  if (metrics) {
    kPredictions->Increment(n);
    kPasses->Increment(num_members);
  }
  const size_t out_dim = passes[0].dim(1);
  for (size_t k = 1; k < num_members; ++k) {
    TASFAR_CHECK_MSG(passes[k].dim(1) == out_dim,
                     "ensemble members disagree on output width");
  }

  // Accumulate sum and sum-of-squares across members, in workspace
  // tensors (the square-then-add two-op order per member matches the
  // pre-workspace `sum_sq += pass * pass` expression byte for byte).
  Workspace& ws = Workspace::ThreadLocal();
  Tensor sum = ws.NewTensor(passes[0].shape());
  CopyInto(passes[0], &sum);
  Tensor sum_sq = ws.NewTensor(passes[0].shape());
  MulInto(passes[0], passes[0], &sum_sq);
  Tensor sq = ws.NewTensor(passes[0].shape());
  for (size_t k = 1; k < num_members; ++k) {
    AddInto(sum, passes[k], &sum);  // aliased: elementwise in-place add.
    MulInto(passes[k], passes[k], &sq);
    AddInto(sum_sq, sq, &sum_sq);  // aliased: elementwise in-place add.
  }
  const double inv_k = 1.0 / static_cast<double>(num_members);
  for (size_t i = 0; i < n; ++i) {
    out[i].mean.resize(out_dim);
    out[i].std.resize(out_dim);
    for (size_t j = 0; j < out_dim; ++j) {
      const double m = sum.At(i, j) * inv_k;
      double var = sum_sq.At(i, j) * inv_k - m * m;
      if (var < 0.0) var = 0.0;  // Numerical guard.
      out[i].mean[j] = m;
      out[i].std[j] = std::sqrt(var);
    }
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
