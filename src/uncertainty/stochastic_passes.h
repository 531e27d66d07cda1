#ifndef TASFAR_UNCERTAINTY_STOCHASTIC_PASSES_H_
#define TASFAR_UNCERTAINTY_STOCHASTIC_PASSES_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "nn/sequential.h"
#include "obs/metrics.h"
#include "uncertainty/estimator.h"

namespace tasfar {

/// Number of leading top-level layers of `model` without stochastic state
/// (Layer::HasStochasticState): the deterministic trunk. Those layers give
/// the same bytes on every stochastic pass, so a pass-based Predict runs
/// them once per call; the rest, from the first Dropout with rate > 0 (or
/// the first container holding one) on, is the per-pass head.
size_t DeterministicTrunkLength(Sequential* model);

/// Head pass p of every estimator runs on Workspace lane p % kPassLanes.
constexpr size_t kPassLanes = 8;

struct PassPlan {
  /// Model whose layers [0, cut) the trunk runs, and whose layers
  /// [cut, end) size the head work (required).
  Sequential* trunk_source = nullptr;
  size_t cut = 0;
  size_t num_passes = 0;
  size_t batch_size = 64;
  bool training = true;
  /// Run both parts through ForwardF32 (every layer must support it).
  bool use_f32 = false;
};

/// The pass loop shared by McDropoutPredictor and DeepEnsemble: splits a
/// stochastic-pass Predict into a trunk run once per call and a head run
/// once per pass, and returns the per-row mean and population std over
/// `plan.num_passes` passes for every row of `inputs` (n > 0).
///
///  - Trunk: layers [0, cut) run once on each `batch_size` row slice. The
///    slices are split into contiguous runs, one per pool thread, and each
///    run goes to a fresh copy of the trunk layers (parameters shared with
///    `trunk_source`, dropped with their caches when the run ends) and a
///    Workspace fixed by the run's index. Those Workspaces sit in per-call
///    state that a call takes from one process-wide idle list and gives
///    back, so a warm Predict allocates nothing whichever worker takes a
///    run, no lock is held while the trunk runs, and every estimator
///    reuses the same trunk buffers instead of keeping its own.
///  - Head: pass p runs layers [cut, end) of the model `head(p)` returns
///    on every slice output in ascending slice order, on lane
///    p % kPassLanes. The passes fan out over the pool only when
///    passes × rows × the head's weights (the summed parameter sizes of
///    `trunk_source`'s layers [cut, end)) reaches kParallelMinMadds; a
///    smaller call runs them in ascending order on the caller. Pass p
///    holds its lane's lock for the whole pass, and the lane's Workspace
///    serves every buffer. `head` is called once per pass under
///    that lock, before any slice, and must return a model whose
///    stochastic streams are already pinned to the pass; a model it keeps
///    per lane is only ever touched under that lane's lock.
///
/// Slice boundaries, the `training` flag, layer seeds and every layer's
/// input bytes are those of a whole-model pass per slice, so the result is
/// byte-identical to running every pass through the whole model (and at
/// every thread count: the reduction runs serially in ascending pass
/// order). `pass_ms`, when set, observes each head pass.
std::vector<McPrediction> RunStochasticPasses(
    const Tensor& inputs, const PassPlan& plan,
    const std::function<Sequential*(size_t pass)>& head,
    obs::Histogram* pass_ms);

}  // namespace tasfar

#endif  // TASFAR_UNCERTAINTY_STOCHASTIC_PASSES_H_
