#include "baselines/mmd_uda.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "util/stats.h"

namespace tasfar {

namespace {

/// RBF bandwidth multipliers around the median pairwise distance
/// (multi-kernel MMD).
constexpr std::array<double, 3> kBandwidthMultipliers{0.5, 1.0, 2.0};

double SquaredRowDistance(const Tensor& a, size_t i, const Tensor& b,
                          size_t j) {
  double s = 0.0;
  for (size_t d = 0; d < a.dim(1); ++d) {
    const double diff = a.At(i, d) - b.At(j, d);
    s += diff * diff;
  }
  return s;
}

double MultiKernel(double sq_dist, const std::vector<double>& bandwidths) {
  double k = 0.0;
  for (double g : bandwidths) {
    k += std::exp(-sq_dist / (2.0 * g * g));
  }
  return k / static_cast<double>(bandwidths.size());
}

}  // namespace

double MedianPairwiseDistance(const Tensor& feat_a, const Tensor& feat_b) {
  TASFAR_CHECK(feat_a.rank() == 2 && feat_b.rank() == 2);
  TASFAR_CHECK(feat_a.dim(1) == feat_b.dim(1));
  std::vector<double> dists;
  dists.reserve(feat_a.dim(0) * feat_b.dim(0));
  for (size_t i = 0; i < feat_a.dim(0); ++i) {
    for (size_t j = 0; j < feat_b.dim(0); ++j) {
      dists.push_back(std::sqrt(SquaredRowDistance(feat_a, i, feat_b, j)));
    }
  }
  double med = stats::Median(std::move(dists));
  return med > 1e-9 ? med : 1.0;
}

double MmdSquared(const Tensor& feat_a, const Tensor& feat_b,
                  const std::vector<double>& bandwidths) {
  TASFAR_CHECK(feat_a.rank() == 2 && feat_b.rank() == 2);
  TASFAR_CHECK(feat_a.dim(1) == feat_b.dim(1));
  TASFAR_CHECK(!bandwidths.empty());
  const size_t m = feat_a.dim(0), n = feat_b.dim(0);
  TASFAR_CHECK(m > 0 && n > 0);
  double k_aa = 0.0, k_bb = 0.0, k_ab = 0.0;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      k_aa += MultiKernel(SquaredRowDistance(feat_a, i, feat_a, j),
                          bandwidths);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      k_bb += MultiKernel(SquaredRowDistance(feat_b, i, feat_b, j),
                          bandwidths);
    }
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      k_ab += MultiKernel(SquaredRowDistance(feat_a, i, feat_b, j),
                          bandwidths);
    }
  }
  return k_aa / static_cast<double>(m * m) +
         k_bb / static_cast<double>(n * n) -
         2.0 * k_ab / static_cast<double>(m * n);
}

Tensor MmdGradTarget(const Tensor& feat_a, const Tensor& feat_b,
                     const std::vector<double>& bandwidths) {
  TASFAR_CHECK(feat_a.rank() == 2 && feat_b.rank() == 2);
  TASFAR_CHECK(feat_a.dim(1) == feat_b.dim(1));
  const size_t m = feat_a.dim(0), n = feat_b.dim(0), dims = feat_b.dim(1);
  Tensor grad({n, dims});
  const double inv_k = 1.0 / static_cast<double>(bandwidths.size());
  // d k(a,b) / d b = (a - b) / γ² · exp(-|a-b|²/(2γ²))
  auto accumulate = [&](size_t i, const Tensor& other, size_t j,
                        double coeff) {
    const double sq = SquaredRowDistance(feat_b, i, other, j);
    for (double g : bandwidths) {
      const double k = std::exp(-sq / (2.0 * g * g)) * inv_k;
      const double scale = coeff * k / (g * g);
      for (size_t d = 0; d < dims; ++d) {
        grad.At(i, d) += scale * (other.At(j, d) - feat_b.At(i, d));
      }
    }
  };
  // + (2/n²) Σ_j k(b_i, b_j) term (both arguments depend on b, giving a
  // factor 2) and - (2/mn) Σ_j k(a_j, b_i).
  const double c_bb = 2.0 / static_cast<double>(n * n);
  const double c_ab = -2.0 / static_cast<double>(m * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      accumulate(i, feat_b, j, c_bb);
    }
    for (size_t j = 0; j < m; ++j) {
      accumulate(i, feat_a, j, c_ab);
    }
  }
  return grad;
}

MmdUda::MmdUda(const MmdUdaOptions& options) : options_(options) {
  TASFAR_CHECK(options.learning_rate > 0.0);
}

std::unique_ptr<Sequential> MmdUda::Adapt(const Sequential& source_model,
                                          const UdaContext& context,
                                          Rng* rng) {
  TASFAR_CHECK(rng != nullptr);
  TASFAR_CHECK_MSG(context.source_inputs != nullptr &&
                       context.source_targets != nullptr &&
                       context.target_inputs != nullptr,
                   "MMD UDA is source-based: all tensors required");
  std::unique_ptr<Sequential> model = source_model.CloneSequential();
  const size_t cut = options_.cut_layer;
  TASFAR_CHECK_MSG(cut > 0 && cut < model->NumLayers(),
                   "cut_layer must be inside the network");

  const Tensor& xs = *context.source_inputs;
  const Tensor& ys = *context.source_targets;
  const Tensor& xt = *context.target_inputs;
  const size_t ns = xs.dim(0), nt = xt.dim(0);
  const size_t batch = std::min({kUdaBatchSize, ns, nt});
  TASFAR_CHECK(batch > 0);

  // SGD: fine-tuning from a trained optimum (see AdaptationTrainConfig —
  // Adam's sign-normalized steps drift the model even at zero gradient).
  Sgd optimizer(options_.learning_rate, /*momentum=*/0.9);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const std::vector<size_t> s_order = rng->Permutation(ns);
    const std::vector<size_t> t_order = rng->Permutation(nt);
    const size_t steps = std::min(ns, nt) / batch;
    for (size_t step = 0; step < steps; ++step) {
      std::vector<size_t> s_idx(s_order.begin() + step * batch,
                                s_order.begin() + (step + 1) * batch);
      std::vector<size_t> t_idx(t_order.begin() + step * batch,
                                t_order.begin() + (step + 1) * batch);
      Tensor xs_b = GatherFirstDim(xs, s_idx);
      Tensor ys_b = GatherFirstDim(ys, s_idx);
      Tensor xt_b = GatherFirstDim(xt, t_idx);

      // (a) Supervised step on the source batch.
      Tensor pred = model->Forward(xs_b, /*training=*/true);
      Tensor grad;
      loss::Mse(pred, ys_b, &grad, nullptr);
      model->ZeroGrads();
      model->BackwardParams(grad);
      optimizer.Step(model->Params(), model->Grads());

      // (b) Alignment step, at unit weight: pull target features toward
      // the detached source feature batch under multi-kernel MMD.
      Tensor feat_s = model->ForwardTo(xs_b, cut, /*training=*/false);
      Tensor feat_t = model->ForwardTo(xt_b, cut, /*training=*/true);
      const double med = MedianPairwiseDistance(feat_s, feat_t);
      std::vector<double> bandwidths;
      bandwidths.reserve(kBandwidthMultipliers.size());
      for (double mult : kBandwidthMultipliers) {
        bandwidths.push_back(mult * med);
      }
      Tensor mmd_grad = MmdGradTarget(feat_s, feat_t, bandwidths);
      model->ZeroGrads();
      model->BackwardFrom(mmd_grad, cut);
      optimizer.Step(model->Params(), model->Grads());
    }
  }
  return model;
}

}  // namespace tasfar
