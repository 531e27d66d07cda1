#include "uncertainty/laplace.h"

#include <cmath>
#include <limits>

#include "nn/dense.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace tasfar {
namespace {

/// In-place Cholesky factorization of the symmetric positive-definite
/// d×d row-major matrix `h` (lower triangle result). H = λI + ΦᵀΦ with
/// λ > 0 is positive definite by construction, so the factorization
/// cannot encounter a non-positive pivot on finite inputs; a non-finite
/// pivot (poisoned upstream numerics) is reported by returning false so
/// the caller can emit NaN uncertainty instead of aborting.
bool CholeskyInPlace(std::vector<double>* h, size_t d) {
  std::vector<double>& a = *h;
  for (size_t j = 0; j < d; ++j) {
    double diag = a[j * d + j];
    for (size_t k = 0; k < j; ++k) diag -= a[j * d + k] * a[j * d + k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double l_jj = std::sqrt(diag);
    a[j * d + j] = l_jj;
    for (size_t i = j + 1; i < d; ++i) {
      double v = a[i * d + j];
      for (size_t k = 0; k < j; ++k) v -= a[i * d + k] * a[j * d + k];
      a[i * d + j] = v / l_jj;
    }
  }
  return true;
}

}  // namespace

LastLayerLaplace::LastLayerLaplace(Sequential* model) : model_(model) {
  TASFAR_CHECK(model != nullptr);
  TASFAR_CHECK_MSG(model->NumLayers() > 0, "empty model has no Dense head");
  cut_ = model->NumLayers() - 1;
  TASFAR_CHECK_MSG(dynamic_cast<Dense*>(&model->layer(cut_)) != nullptr,
                   "last-layer Laplace needs a Dense output head");
}

std::vector<McPrediction> LastLayerLaplace::Predict(
    const Tensor& inputs) const {
  const size_t n = inputs.dim(0);
  std::vector<McPrediction> out(n);
  if (n == 0) return out;
  TASFAR_TRACE_SPAN("laplace.predict");
  const bool metrics = obs::MetricsEnabled();
  static obs::Histogram* const kFitMs = obs::Registry::Get().GetHistogram(
      "tasfar.uncertainty.laplace.fit_ms", obs::Histogram::LatencyEdgesMs());
  static obs::Counter* const kPredictions = obs::Registry::Get().GetCounter(
      "tasfar.uncertainty.laplace.predictions");
  const uint64_t t0 = metrics ? obs::MonotonicMicros() : 0;

  // Features feeding the head, then the head itself on those features —
  // one deterministic pass, shared by mean and covariance.
  Tensor features = model_->ForwardTo(inputs, cut_, /*training=*/false);
  Tensor mean = model_->ForwardFrom(features, cut_, /*training=*/false);
  const size_t feat_dim = features.dim(1);
  const size_t out_dim = mean.dim(1);
  const size_t d = feat_dim + 1;  // Bias-augmented feature dimension.

  // Gauss–Newton precision H = λI + ΦᵀΦ over the call's own batch, with
  // unit prior precision λ = 1 (the std's absolute scale is calibrated
  // away by the Q_s fit), accumulated serially in ascending row order
  // (byte-identical at every thread count; n·d² flops on a ≤ tens-wide
  // head is not a hot path).
  std::vector<double> h(d * d, 0.0);
  for (size_t j = 0; j < d; ++j) h[j * d + j] = 1.0;
  std::vector<double> phi(d, 1.0);  // phi[feat_dim] stays 1 (bias).
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < feat_dim; ++j) phi[j] = features.At(i, j);
    for (size_t a = 0; a < d; ++a) {
      for (size_t b = 0; b <= a; ++b) h[a * d + b] += phi[a] * phi[b];
    }
  }
  const bool factored = CholeskyInPlace(&h, d);

  // Per-sample predictive variance φᵀ H⁻¹ φ = ||L⁻¹φ||² via one forward
  // substitution per row. The MSE Gauss–Newton posterior factorizes per
  // output dimension with this shared covariance, so every dimension
  // reports the same std.
  std::vector<double> z(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    out[i].mean.resize(out_dim);
    out[i].std.resize(out_dim);
    for (size_t j = 0; j < out_dim; ++j) out[i].mean[j] = mean.At(i, j);
    double std_i = std::numeric_limits<double>::quiet_NaN();
    if (factored) {
      for (size_t j = 0; j < feat_dim; ++j) phi[j] = features.At(i, j);
      phi[feat_dim] = 1.0;
      double var = 0.0;
      for (size_t a = 0; a < d; ++a) {
        double v = phi[a];
        for (size_t k = 0; k < a; ++k) v -= h[a * d + k] * z[k];
        z[a] = v / h[a * d + a];
        var += z[a] * z[a];
      }
      if (var < 0.0) var = 0.0;  // Numerical guard.
      std_i = std::sqrt(var);
    }
    for (size_t j = 0; j < out_dim; ++j) out[i].std[j] = std_i;
  }
  if (metrics) {
    kPredictions->Increment(n);
    kFitMs->Observe(
        static_cast<double>(obs::MonotonicMicros() - t0) / 1000.0);
  }
  // Chaos injection: one prediction comes back poisoned, as corrupted
  // head numerics would leave it. Consumers must drop it, not crash.
  if (TASFAR_FAILPOINT("laplace.poison")) {
    out[0].mean[0] = std::numeric_limits<double>::quiet_NaN();
    out[0].std[0] = std::numeric_limits<double>::quiet_NaN();
  }
  return out;
}

}  // namespace tasfar
