#ifndef TASFAR_UNCERTAINTY_ENSEMBLE_H_
#define TASFAR_UNCERTAINTY_ENSEMBLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "nn/trainer.h"
#include "uncertainty/estimator.h"

namespace tasfar {

/// Deep-ensemble uncertainty estimation (Lakshminarayanan et al.): the
/// prediction is the mean over member models, the uncertainty their
/// disagreement (std). The paper notes TASFAR is orthogonal to the
/// uncertainty estimator — this is the standard alternative to MC
/// dropout, pluggable everywhere an UncertaintyEstimator is
/// (UncertaintyBackend::kDeepEnsemble).
///
/// Two member modes:
///  - Trained members (the constructor or Train): independently
///    initialized and trained models, forwarded deterministically
///    (dropout off). Predict is byte-identical on every call.
///  - Source-derived members (FromSource): zero-copy clones of one source
///    model whose stochastic layers are pinned to per-member streams
///    MixSeed(seed, member) and forwarded with dropout active. This is
///    the only way to build an ensemble in a source-free deployment that
///    holds a single model, and it is what MakeEstimator constructs. The
///    masks are pinned to the member index, not the call, so Predict is
///    byte-identical on every call (unlike MC dropout's per-call
///    streams). A source model with no stochastic layers yields zero
///    disagreement, reported as-is.
///
/// Cost: source-derived members share every weight, so the layers before
/// the first Dropout (the deterministic trunk) run once per call for all
/// members, and only the rest once per member (RunStochasticPasses,
/// uncertainty/stochastic_passes.h). Trained members run whole.
///
/// Parallelism and determinism (docs/THREADING.md): Predict fans the
/// trunk's batch slices, then one pass per member, across the global
/// thread pool; each member is touched by exactly one task, and the
/// cross-member reduction runs serially in ascending member order, so
/// results are byte-identical at every TASFAR_NUM_THREADS. Member k's
/// pass draws its buffers from a Workspace lane fixed by k
/// (docs/MEMORY.md), not from the worker that happens to run it, so
/// steady-state Predict allocates no tensor buffers however the pool
/// hands members to workers. Member forward passes mutate per-member
/// activation caches, so concurrent Predict calls on one DeepEnsemble are
/// NOT safe (serve sessions serialize Predict under the session lock).
class DeepEnsemble : public UncertaintyEstimator {
 public:
  /// Takes ownership of at least two trained member models with identical
  /// output dimensionality.
  explicit DeepEnsemble(std::vector<std::unique_ptr<Sequential>> members);

  /// Trains `num_members` fresh models produced by `builder` (called with
  /// a per-member Rng) on (inputs, targets) and wraps them. The members
  /// differ by initialization and data order.
  static DeepEnsemble Train(
      const std::function<std::unique_ptr<Sequential>(Rng*)>& builder,
      const Tensor& inputs, const Tensor& targets, size_t num_members,
      const TrainConfig& config, double learning_rate, Rng* rng);

  /// Source-derived ensemble over `source` (which must outlive it):
  /// `num_members` >= 2 zero-copy clones with per-member pinned stochastic
  /// streams rooted at `seed`. See the class comment's second mode.
  static DeepEnsemble FromSource(Sequential* source, size_t num_members,
                                 uint64_t seed, size_t batch_size = 64);

  DeepEnsemble(DeepEnsemble&&) = default;
  DeepEnsemble& operator=(DeepEnsemble&&) = default;

  /// Mean/std across members for every sample in `inputs`.
  std::vector<McPrediction> Predict(const Tensor& inputs) const override;

  /// Deterministic ensemble-mean predictions, {n, out_dim}; an empty
  /// rank-2 tensor when n == 0. For a source-derived ensemble the members
  /// share the source weights, so this equals the source model's own
  /// deterministic prediction.
  Tensor PredictMean(const Tensor& inputs) const override;

  /// Re-roots the per-member stochastic streams (source-derived mode; a
  /// no-op for trained members, which forward deterministically).
  void Reseed(uint64_t seed) override;

  /// Source-derived ensembles rebuild over `model` with the same member
  /// count and seed; trained ensembles deep-copy their members (`model`
  /// is ignored — the members are the model).
  std::unique_ptr<UncertaintyEstimator> Clone(
      Sequential* model) const override;

  const char* name() const override { return "ensemble"; }

  size_t num_members() const { return members_.size(); }
  Sequential& member(size_t i) {
    TASFAR_CHECK(i < members_.size());
    return *members_[i];
  }

 private:
  std::vector<std::unique_ptr<Sequential>> members_;
  /// True for FromSource ensembles: members forward with stochastic
  /// layers active, reseeded per member from `seed_`.
  bool stochastic_members_ = false;
  uint64_t seed_ = 0;
  size_t batch_size_ = 64;
};

}  // namespace tasfar

#endif  // TASFAR_UNCERTAINTY_ENSEMBLE_H_
