#include "baselines/datafree_uda.h"

#include <algorithm>
#include <cmath>

#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace tasfar {

namespace {

/// Mini-batch size of the histogram-matching steps.
constexpr size_t kBatchSize = 64;

/// Softmax memberships of one value over the reference bins, plus (when
/// `grad_logits` != nullptr) d membership / d value.
void SoftMembership(double value, const SoftHistogram& ref,
                    std::vector<double>* membership,
                    std::vector<double>* d_membership_dx) {
  const size_t bins = ref.centers.size();
  membership->resize(bins);
  std::vector<double> logits(bins);
  const double inv_h2 = 1.0 / (ref.bandwidth * ref.bandwidth);
  double max_logit = -1e300;
  for (size_t b = 0; b < bins; ++b) {
    const double d = value - ref.centers[b];
    logits[b] = -0.5 * d * d * inv_h2;
    max_logit = std::max(max_logit, logits[b]);
  }
  double z = 0.0;
  for (size_t b = 0; b < bins; ++b) {
    (*membership)[b] = std::exp(logits[b] - max_logit);
    z += (*membership)[b];
  }
  for (size_t b = 0; b < bins; ++b) (*membership)[b] /= z;
  if (d_membership_dx == nullptr) return;
  // dl_b/dx = -(x - c_b)/h²;  dφ_b/dx = φ_b (dl_b/dx - Σ_c φ_c dl_c/dx).
  d_membership_dx->resize(bins);
  std::vector<double> dl(bins);
  double mean_dl = 0.0;
  for (size_t b = 0; b < bins; ++b) {
    dl[b] = -(value - ref.centers[b]) * inv_h2;
    mean_dl += (*membership)[b] * dl[b];
  }
  for (size_t b = 0; b < bins; ++b) {
    (*d_membership_dx)[b] = (*membership)[b] * (dl[b] - mean_dl);
  }
}

}  // namespace

SoftHistogram ComputeSoftHistogram(const std::vector<double>& values,
                                   size_t num_bins) {
  TASFAR_CHECK(!values.empty());
  TASFAR_CHECK(num_bins >= 2);
  SoftHistogram h;
  double lo = values[0], hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi - lo < 1e-9) hi = lo + 1.0;  // Constant-feature guard.
  const double spacing = (hi - lo) / static_cast<double>(num_bins - 1);
  h.centers.resize(num_bins);
  for (size_t b = 0; b < num_bins; ++b) {
    h.centers[b] = lo + spacing * static_cast<double>(b);
  }
  h.bandwidth = spacing;
  h.mass = SoftHistogramMass(values, h);
  return h;
}

std::vector<double> SoftHistogramMass(const std::vector<double>& values,
                                      const SoftHistogram& reference) {
  TASFAR_CHECK(!values.empty());
  std::vector<double> mass(reference.centers.size(), 0.0);
  std::vector<double> membership;
  for (double v : values) {
    SoftMembership(v, reference, &membership, nullptr);
    for (size_t b = 0; b < mass.size(); ++b) mass[b] += membership[b];
  }
  const double inv_n = 1.0 / static_cast<double>(values.size());
  for (double& m : mass) m *= inv_n;
  return mass;
}

DatafreeUda::DatafreeUda(const DatafreeUdaOptions& options)
    : options_(options) {
  TASFAR_CHECK(options.num_bins >= 2);
  TASFAR_CHECK(options.learning_rate > 0.0);
}

DatafreeSourceStats DatafreeUda::ComputeStats(
    Sequential* source_model, const Tensor& source_inputs) const {
  TASFAR_CHECK(source_model != nullptr);
  const size_t cut = options_.cut_layer;
  TASFAR_CHECK(cut > 0 && cut < source_model->NumLayers());
  const size_t n = source_inputs.dim(0);
  // Extract features batch-wise to bound memory.
  std::vector<std::vector<double>> per_dim;
  const size_t batch = 64;
  for (size_t start = 0; start < n; start += batch) {
    const size_t end = std::min(start + batch, n);
    std::vector<size_t> idx(end - start);
    for (size_t i = start; i < end; ++i) idx[i - start] = i;
    Tensor feat = source_model->ForwardTo(GatherFirstDim(source_inputs, idx),
                                          cut, /*training=*/false);
    if (per_dim.empty()) per_dim.resize(feat.dim(1));
    for (size_t i = 0; i < feat.dim(0); ++i) {
      for (size_t d = 0; d < feat.dim(1); ++d) {
        per_dim[d].push_back(feat.At(i, d));
      }
    }
  }
  DatafreeSourceStats stats;
  stats.cut_layer = cut;
  stats.histograms.reserve(per_dim.size());
  for (const auto& values : per_dim) {
    stats.histograms.push_back(ComputeSoftHistogram(values,
                                                    options_.num_bins));
  }
  return stats;
}

std::unique_ptr<Sequential> DatafreeUda::AdaptWithStats(
    const Sequential& source_model, const DatafreeSourceStats& stats,
    const Tensor& target_inputs, Rng* rng) const {
  TASFAR_CHECK(rng != nullptr);
  std::unique_ptr<Sequential> model = source_model.CloneSequential();
  const size_t cut = stats.cut_layer;
  TASFAR_CHECK(cut > 0 && cut < model->NumLayers());
  const size_t nt = target_inputs.dim(0);
  const size_t batch = std::min(kBatchSize, nt);
  TASFAR_CHECK(batch > 0);

  // SGD: fine-tuning from a trained optimum (see AdaptationTrainConfig).
  Sgd optimizer(options_.learning_rate, /*momentum=*/0.9);
  std::vector<double> membership, d_membership;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const std::vector<size_t> order = rng->Permutation(nt);
    for (size_t start = 0; start + batch <= nt; start += batch) {
      std::vector<size_t> idx(order.begin() + start,
                              order.begin() + start + batch);
      Tensor xt_b = GatherFirstDim(target_inputs, idx);
      Tensor feat = model->ForwardTo(xt_b, cut, /*training=*/true);
      TASFAR_CHECK(feat.dim(1) == stats.histograms.size());
      const size_t n = feat.dim(0);
      const double inv_n = 1.0 / static_cast<double>(n);
      Tensor grad(feat.shape());
      // Per dimension: batch soft histogram vs stored source histogram.
      for (size_t d = 0; d < stats.histograms.size(); ++d) {
        const SoftHistogram& ref = stats.histograms[d];
        std::vector<double> values(n);
        for (size_t i = 0; i < n; ++i) values[i] = feat.At(i, d);
        const std::vector<double> target_mass =
            SoftHistogramMass(values, ref);
        std::vector<double> residual(target_mass.size());
        for (size_t b = 0; b < residual.size(); ++b) {
          residual[b] = 2.0 * (target_mass[b] - ref.mass[b]);
        }
        for (size_t i = 0; i < n; ++i) {
          SoftMembership(values[i], ref, &membership, &d_membership);
          double g = 0.0;
          for (size_t b = 0; b < residual.size(); ++b) {
            g += residual[b] * d_membership[b];
          }
          grad.At(i, d) = g * inv_n;
        }
      }
      model->ZeroGrads();
      model->BackwardFrom(grad, cut);
      optimizer.Step(model->Params(), model->Grads());
    }
  }
  return model;
}

std::unique_ptr<Sequential> DatafreeUda::Adapt(const Sequential& source_model,
                                               const UdaContext& context,
                                               Rng* rng) {
  TASFAR_CHECK_MSG(context.source_inputs != nullptr &&
                       context.target_inputs != nullptr,
                   "Datafree needs source inputs once, to compute the "
                   "stored statistics");
  // The statistics are what actually crosses to the target side.
  std::unique_ptr<Sequential> probe = source_model.CloneSequential();
  DatafreeSourceStats stats = ComputeStats(probe.get(),
                                           *context.source_inputs);
  return AdaptWithStats(source_model, stats, *context.target_inputs, rng);
}

}  // namespace tasfar
