#include "nn/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/workspace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tasfar {

Tensor GatherFirstDim(const Tensor& t, const std::vector<size_t>& indices) {
  TASFAR_CHECK(t.rank() >= 1);
  const size_t n = t.dim(0);
  size_t row = 1;
  for (size_t i = 1; i < t.rank(); ++i) row *= t.dim(i);
  // The flat views are zero-copy; only the gather itself writes, into a
  // workspace tensor so per-batch gathers recycle their buffers.
  Tensor flat = t.Reshape({n, row});
  Tensor gathered = Workspace::ThreadLocal().NewTensor({indices.size(), row});
  GatherRowsInto(flat, indices, &gathered);
  std::vector<size_t> shape = t.shape();
  shape[0] = indices.size();
  return gathered.Reshape(std::move(shape));
}

Tensor BatchedForward(Sequential* model, const Tensor& inputs, bool training,
                      size_t batch_size) {
  TASFAR_CHECK(model != nullptr);
  TASFAR_CHECK(batch_size > 0);
  const size_t n = inputs.dim(0);
  if (n == 0) return Tensor({0, 0});
  // Batches are contiguous row ranges, so each one is a zero-copy view of
  // `inputs`; per-batch outputs are copied into one preallocated result.
  Tensor full;
  for (size_t start = 0; start < n; start += batch_size) {
    const size_t end = std::min(start + batch_size, n);
    const Tensor out = model->Forward(inputs.SliceRows(start, end), training);
    TASFAR_CHECK(out.rank() == 2);
    if (start == 0) {
      full = Workspace::ThreadLocal().NewTensor({n, out.dim(1)});
    }
    TASFAR_CHECK(out.dim(0) == end - start && out.dim(1) == full.dim(1));
    std::copy(out.data(), out.data() + out.size(),
              full.data() + start * full.dim(1));
  }
  return full;
}

Tensor BatchedForwardF32(Sequential* model, const Tensor& inputs,
                         bool training, size_t batch_size) {
  TASFAR_CHECK(model != nullptr);
  TASFAR_CHECK(batch_size > 0);
  TASFAR_CHECK_MSG(model->SupportsF32(),
                   "BatchedForwardF32 requires every layer to support f32");
  TASFAR_CHECK_MSG(inputs.rank() == 2,
                   "the f32 staging path handles rank-2 inputs only");
  const size_t n = inputs.dim(0);
  if (n == 0) return Tensor({0, 0});
  // Staging reused across calls per thread (the model's ForwardF32 never
  // re-enters this function, so the buffers cannot be live twice).
  thread_local simd::F32Tensor staged_in;
  thread_local simd::F32Tensor staged_out;
  Tensor full;
  for (size_t start = 0; start < n; start += batch_size) {
    const size_t end = std::min(start + batch_size, n);
    staged_in.FromTensor(inputs.SliceRows(start, end));
    model->ForwardF32(staged_in, &staged_out, training);
    if (start == 0) {
      full = Workspace::ThreadLocal().NewTensor({n, staged_out.cols()});
    }
    TASFAR_CHECK(staged_out.rows() == end - start &&
                 staged_out.cols() == full.dim(1));
    staged_out.WidenTo(full.data() + start * full.dim(1));
  }
  return full;
}

Trainer::Trainer(Sequential* model, Optimizer* optimizer, LossFn loss)
    : model_(model), optimizer_(optimizer), loss_(std::move(loss)) {
  TASFAR_CHECK(model != nullptr && optimizer != nullptr);
  TASFAR_CHECK(loss_ != nullptr);
}

std::vector<EpochStats> Trainer::Fit(
    const Tensor& inputs, const Tensor& targets, const TrainConfig& config,
    Rng* rng, const std::vector<double>* sample_weights,
    const std::function<void(const EpochStats&)>& on_epoch) {
  TASFAR_CHECK(rng != nullptr);
  TASFAR_CHECK(inputs.rank() >= 2 && targets.rank() == 2);
  const size_t n = inputs.dim(0);
  TASFAR_CHECK(targets.dim(0) == n);
  TASFAR_CHECK(n > 0);
  if (sample_weights != nullptr) {
    TASFAR_CHECK_MSG(sample_weights->size() == n,
                     "one weight per sample required");
  }
  const size_t batch_size = std::min(config.batch_size, n);
  TASFAR_CHECK(batch_size > 0);
  TASFAR_TRACE_SPAN("train.fit");

  std::vector<EpochStats> history;
  double prev_loss = std::numeric_limits<double>::infinity();
  size_t stall = 0;
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const std::vector<size_t> order = rng->Permutation(n);

    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < n; start += batch_size) {
      const size_t end = std::min(start + batch_size, n);
      std::vector<size_t> idx(order.begin() + start, order.begin() + end);
      Tensor x = GatherFirstDim(inputs, idx);
      Tensor y = GatherFirstDim(targets, idx);
      std::vector<double> w;
      const std::vector<double>* w_ptr = nullptr;
      if (sample_weights != nullptr) {
        w.reserve(idx.size());
        for (size_t i : idx) w.push_back((*sample_weights)[i]);
        w_ptr = &w;
      }
      Tensor pred = model_->Forward(x, config.dropout_during_training);
      Tensor grad;
      const double batch_loss = loss_(pred, y, &grad, w_ptr);
      // A poisoned loss or loss-gradient (the loss layer already reported
      // it through tasfar.guard.*) would corrupt every parameter via
      // Backward+Step; the batch sits the step out instead.
      if (!std::isfinite(batch_loss) || !grad.AllFinite()) {
        if (obs::MetricsEnabled()) {
          static obs::Counter* const kSkipped = obs::Registry::Get()
              .GetCounter("tasfar.train.skipped_batches");
          kSkipped->Increment();
        }
        continue;
      }
      model_->ZeroGrads();
      model_->BackwardParams(grad);
      if (config.clip_grad_norm > 0.0) {
        double norm_sq = 0.0;
        for (Tensor* g : model_->Grads()) norm_sq += g->SquaredNorm();
        const double norm = std::sqrt(norm_sq);
        if (norm > config.clip_grad_norm) {
          const double scale = config.clip_grad_norm / norm;
          for (Tensor* g : model_->Grads()) *g *= scale;
        }
      }
      optimizer_->Step(model_->Params(), model_->Grads());
      epoch_loss += batch_loss;
      ++batches;
    }
    // All batches skipped → the epoch has no defined loss; NaN keeps the
    // early-stop logic inert (it requires a finite prev_loss) and flags
    // the epoch for divergence detection upstream.
    epoch_loss = batches == 0 ? std::numeric_limits<double>::quiet_NaN()
                              : epoch_loss / static_cast<double>(batches);

    EpochStats st{epoch, epoch_loss};
    history.push_back(st);
    if (obs::MetricsEnabled()) {
      static obs::Gauge* const kEpochLoss =
          obs::Registry::Get().GetGauge("tasfar.train.epoch_loss");
      static obs::Counter* const kEpochs =
          obs::Registry::Get().GetCounter("tasfar.train.epochs_total");
      kEpochLoss->Set(epoch_loss);
      kEpochs->Increment();
    }
    if (on_epoch != nullptr) on_epoch(st);

    if (config.early_stop_rel_drop > 0.0 &&
        std::isfinite(prev_loss) && prev_loss > 0.0) {
      const double rel_drop = (prev_loss - epoch_loss) / prev_loss;
      if (rel_drop < config.early_stop_rel_drop) {
        if (++stall >= config.patience) break;
      } else {
        stall = 0;
      }
    }
    prev_loss = epoch_loss;
  }
  return history;
}

double Trainer::Evaluate(const Tensor& inputs, const Tensor& targets) {
  Tensor pred = BatchedForward(model_, inputs, /*training=*/false);
  return loss_(pred, targets, nullptr, nullptr);
}

}  // namespace tasfar
