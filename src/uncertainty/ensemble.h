#ifndef TASFAR_UNCERTAINTY_ENSEMBLE_H_
#define TASFAR_UNCERTAINTY_ENSEMBLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "uncertainty/estimator.h"

namespace tasfar {

/// Deep-ensemble uncertainty estimation (Lakshminarayanan et al.): the
/// prediction is the mean over member models, the uncertainty their
/// disagreement (std). The paper notes TASFAR is orthogonal to the
/// uncertainty estimator — this is the standard alternative to MC
/// dropout, pluggable everywhere an UncertaintyEstimator is
/// (UncertaintyBackend::kDeepEnsemble).
///
/// The members are source-derived (FromSource): zero-copy clones of one
/// source model whose stochastic layers are pinned to per-member streams
/// MixSeed(seed, member) and forwarded with dropout active. This is the
/// only way to build an ensemble in a source-free deployment that holds a
/// single model. The masks are pinned to the member index, not the call,
/// so Predict is byte-identical on every call (unlike MC dropout's
/// per-call streams). A source model with no stochastic layers yields
/// zero disagreement, reported as-is.
///
/// Cost: the members share every weight, so the layers before the first
/// Dropout (the deterministic trunk) run once per call for all members,
/// and only the rest once per member (RunStochasticPasses,
/// uncertainty/stochastic_passes.h).
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
  /// Source-derived ensemble over `source` (which must outlive it):
  /// `num_members` >= 2 zero-copy clones with per-member pinned stochastic
  /// streams rooted at `seed`.
  static DeepEnsemble FromSource(Sequential* source, size_t num_members,
                                 uint64_t seed, size_t batch_size = 64);

  DeepEnsemble(DeepEnsemble&&) = default;
  DeepEnsemble& operator=(DeepEnsemble&&) = default;

  /// Mean/std across members for every sample in `inputs`.
  std::vector<McPrediction> Predict(const Tensor& inputs) const override;

 private:
  DeepEnsemble(std::vector<std::unique_ptr<Sequential>> members,
               uint64_t seed, size_t batch_size);

  std::vector<std::unique_ptr<Sequential>> members_;
  uint64_t seed_;
  size_t batch_size_;
};

}  // namespace tasfar

#endif  // TASFAR_UNCERTAINTY_ENSEMBLE_H_
