#include "uncertainty/stochastic_passes.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

#include "obs/clock.h"
#include "tensor/simd/f32_tensor.h"
#include "tensor/workspace.h"
#include "util/thread_pool.h"

namespace tasfar {
namespace {

/// Head pass p of every estimator runs on lane p % kPassLanes: the lane's
/// Workspace serves every buffer of the pass, including the activations
/// the pass's model caches until its next pass. That model (an ensemble
/// member, or an MC-dropout predictor's replica for the lane) thus returns
/// its old buffers to the pool its next pass draws from, whichever worker
/// runs it, so a warm Predict allocates nothing (a worker's own pool would
/// have to grow to the most passes it was ever handed in one call). Lanes
/// are shared by every estimator, so one set of free buffers per lane
/// serves them all; the lock keeps a lane to one pass at a time when two
/// estimators Predict concurrently. Eight lanes hold the default five
/// ensemble members (TasfarOptions::ensemble_members) without two members
/// of one ensemble taking turns on a lane.
struct PassLane {
  std::mutex mu;
  Workspace workspace;
};

PassLane& PassLaneOf(size_t pass) {
  static PassLane lanes[kPassLanes];
  return lanes[pass % kPassLanes];
}

/// What one call needs beyond the lanes: a Workspace per trunk run (each
/// holding the trunk outputs of its run's slices until the heads are done)
/// and the slice outputs themselves.
struct TrunkState {
  std::vector<std::unique_ptr<Workspace>> workspaces;  // One per trunk run.
  std::vector<simd::F32Tensor> in_f32;                  // One per trunk run.
  std::vector<Tensor> out;                              // One per slice.
  std::vector<simd::F32Tensor> out_f32;                 // One per slice.
};

/// Idle trunk states of the whole process: a call takes one (or starts an
/// empty one) and gives it back, so concurrent calls never share a
/// Workspace, and a lone caller gets the same Workspaces, and so the same
/// buffers, every call, whichever estimator it runs. Buffers stay with the
/// states instead of being freed with short-lived estimators (Calibrate
/// and Adapt build one per call) on whichever worker's malloc arena.
struct IdleTrunkStates {
  std::mutex mu;
  std::vector<std::unique_ptr<TrunkState>> states;
};

IdleTrunkStates& TrunkStates() {
  static IdleTrunkStates idle;
  return idle;
}

}  // namespace

size_t DeterministicTrunkLength(Sequential* model) {
  TASFAR_CHECK(model != nullptr);
  size_t cut = 0;
  while (cut < model->NumLayers() && !model->layer(cut).HasStochasticState()) {
    ++cut;
  }
  return cut;
}

std::vector<McPrediction> RunStochasticPasses(
    const Tensor& inputs, const PassPlan& plan,
    const std::function<Sequential*(size_t pass)>& head,
    obs::Histogram* pass_ms) {
  const size_t n = inputs.dim(0);
  const size_t batch = plan.batch_size;
  TASFAR_CHECK(n > 0 && plan.num_passes > 0 && batch > 0);
  TASFAR_CHECK(plan.trunk_source != nullptr);
  const size_t num_slices = (n + batch - 1) / batch;
  const size_t num_runs = std::min(num_slices, GetNumThreads());
  auto rows_of = [&](size_t b) {
    return inputs.SliceRows(b * batch, std::min(n, (b + 1) * batch));
  };

  IdleTrunkStates& idle = TrunkStates();
  std::unique_ptr<TrunkState> state;
  {
    std::lock_guard<std::mutex> lock(idle.mu);
    if (!idle.states.empty()) {
      state = std::move(idle.states.back());
      idle.states.pop_back();
    }
  }
  if (state == nullptr) state = std::make_unique<TrunkState>();
  while (state->workspaces.size() < num_runs) {
    state->workspaces.push_back(std::make_unique<Workspace>());
  }
  state->in_f32.resize(std::max(state->in_f32.size(), num_runs));
  state->out.resize(num_slices);
  if (plan.use_f32) {
    state->out_f32.resize(std::max(state->out_f32.size(), num_slices));
  }

  // Trunk: once per slice, run r taking slices [r·S/R, (r+1)·S/R). Each
  // task touches only its own run's Workspace and slots, and trunk layers
  // hold no stochastic state, so which worker runs a slice is irrelevant
  // to its bytes. An empty trunk passes the rows through (staged once to
  // f32 for every pass).
  ParallelFor(0, num_runs, /*grain=*/1, [&](size_t r) {
    const Workspace::Scope scope(state->workspaces[r].get());
    // Parameters are shared with the source (copy-on-write), so this
    // copies structure, not weights; its caches go when the run ends.
    Sequential trunk;
    for (size_t i = 0; i < plan.cut; ++i) {
      trunk.Add(plan.trunk_source->layer(i).Clone());
    }
    for (size_t b = r * num_slices / num_runs;
         b < (r + 1) * num_slices / num_runs; ++b) {
      if (plan.use_f32) {
        state->in_f32[r].FromTensor(rows_of(b));
        trunk.ForwardF32(state->in_f32[r], &state->out_f32[b], plan.training);
      } else {
        state->out[b] = trunk.Forward(rows_of(b), plan.training);
      }
    }
  });

  // Heads: one task per pass, each writing only its own `passes` slot and
  // reading the slice outputs, so the fan-out is race-free. A pass feeds
  // its model the slices in ascending order, as a whole-model pass does,
  // so every dropout stream is consumed in the same order. A head does
  // about one multiply-add per weight and row, so a call whose heads do
  // less than the pool's cut-off in all runs every pass on the caller.
  size_t head_weights = 0;
  for (size_t i = plan.cut; i < plan.trunk_source->NumLayers(); ++i) {
    for (const Tensor* w : plan.trunk_source->layer(i).Params()) {
      head_weights += w->size();
    }
  }
  std::vector<Tensor> passes(plan.num_passes);
  const size_t head_grain = ParallelGrain(
      plan.num_passes, plan.num_passes * n * head_weights);
  ParallelFor(0, plan.num_passes, head_grain, [&](size_t p) {
    PassLane& lane = PassLaneOf(p);
    const std::lock_guard<std::mutex> lock(lane.mu);
    const Workspace::Scope scope(&lane.workspace);
    const uint64_t t0 = pass_ms != nullptr ? obs::MonotonicMicros() : 0;
    Sequential* model = head(p);
    const size_t end = model->NumLayers();
    Tensor& full = passes[p];
    for (size_t b = 0; b < num_slices; ++b) {
      const size_t start = b * batch;
      const size_t rows = std::min(n, start + batch) - start;
      if (plan.use_f32) {
        // Reused per thread; the head's ForwardF32 never re-enters here.
        thread_local simd::F32Tensor staged;
        model->ForwardF32(state->out_f32[b], &staged, plan.training,
                          plan.cut, end);
        if (b == 0) full = lane.workspace.NewTensor({n, staged.cols()});
        TASFAR_CHECK(staged.rows() == rows && staged.cols() == full.dim(1));
        staged.WidenTo(full.data() + start * full.dim(1));
      } else {
        const Tensor out =
            model->ForwardFrom(state->out[b], plan.cut, plan.training);
        TASFAR_CHECK(out.rank() == 2);
        if (b == 0) full = lane.workspace.NewTensor({n, out.dim(1)});
        TASFAR_CHECK(out.dim(0) == rows && out.dim(1) == full.dim(1));
        std::copy(out.data(), out.data() + out.size(),
                  full.data() + start * full.dim(1));
      }
    }
    if (pass_ms != nullptr) {
      pass_ms->Observe(static_cast<double>(obs::MonotonicMicros() - t0) /
                       1000.0);
    }
  });

  // The trunk outputs go back to their runs' Workspaces before the state
  // returns to the idle list.
  state->out.clear();
  {
    std::lock_guard<std::mutex> lock(idle.mu);
    idle.states.push_back(std::move(state));
  }

  const size_t out_dim = passes[0].dim(1);
  for (size_t p = 1; p < plan.num_passes; ++p) {
    TASFAR_CHECK_MSG(passes[p].dim(1) == out_dim,
                     "stochastic passes disagree on output width");
  }
  // Accumulate sum and sum-of-squares across passes in ascending pass
  // order, in workspace tensors (the square-then-add two-op order per pass
  // matches the pre-workspace `sum_sq += p * p` expression byte for byte).
  Workspace& ws = Workspace::ThreadLocal();
  Tensor sum = ws.NewTensor(passes[0].shape());
  CopyInto(passes[0], &sum);
  Tensor sum_sq = ws.NewTensor(passes[0].shape());
  MulInto(passes[0], passes[0], &sum_sq);
  Tensor sq = ws.NewTensor(passes[0].shape());
  for (size_t p = 1; p < plan.num_passes; ++p) {
    AddInto(sum, passes[p], &sum);  // aliased: elementwise in-place add.
    MulInto(passes[p], passes[p], &sq);
    AddInto(sum_sq, sq, &sum_sq);  // aliased: elementwise in-place add.
  }
  const double inv = 1.0 / static_cast<double>(plan.num_passes);
  std::vector<McPrediction> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].mean.resize(out_dim);
    out[i].std.resize(out_dim);
    for (size_t j = 0; j < out_dim; ++j) {
      const double m = sum.At(i, j) * inv;
      double var = sum_sq.At(i, j) * inv - m * m;
      if (var < 0.0) var = 0.0;  // Numerical guard.
      out[i].mean[j] = m;
      out[i].std[j] = std::sqrt(var);
    }
  }
  return out;
}

}  // namespace tasfar
