#ifndef TASFAR_UNCERTAINTY_ESTIMATOR_H_
#define TASFAR_UNCERTAINTY_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/sequential.h"

namespace tasfar {

/// Prediction with predictive uncertainty, the unit of exchange between
/// an UncertaintyEstimator and every downstream TASFAR stage (confidence
/// split, QS calibration, label-density estimation). The name is
/// historical — MC dropout was the first backend — but nothing in the
/// struct is dropout-specific.
struct McPrediction {
  std::vector<double> mean;  ///< Per-label-dim predictive mean.
  std::vector<double> std;   ///< Per-label-dim predictive std deviation.

  /// Scalar uncertainty used by the confidence classifier: the L2 norm of
  /// the per-dimension standard deviations (reduces to |std| for 1-D
  /// labels, matching the paper's "standard deviation of predictions from
  /// twenty samplings").
  double ScalarUncertainty() const;
};

/// Wire/config identifier of an uncertainty backend. Values are frozen:
/// they travel in the serve protocol's kCreateSession payload
/// (docs/PROTOCOL.md §Uncertainty backends) and must stay in sync with
/// the doc table — tools/analyze cross-checks both ways.
enum class UncertaintyBackend : std::uint8_t {
  kMcDropout = 0,
  kDeepEnsemble = 1,
  kLastLayerLaplace = 2,
};

/// Stable lowercase label for metrics, telemetry, and CLI flags:
/// "mc_dropout", "ensemble", "laplace".
const char* UncertaintyBackendName(UncertaintyBackend backend);

/// Inverse of UncertaintyBackendName; false on an unknown label.
bool ParseUncertaintyBackendName(const std::string& name,
                                 UncertaintyBackend* out);

/// Validates a wire byte; false (and `out` untouched) when the value names
/// no backend.
bool ParseUncertaintyBackendWire(uint8_t wire, UncertaintyBackend* out);

/// Abstract uncertainty estimator over a regression model — the paper's
/// orthogonality claim as an interface. Every backend turns a batch of
/// inputs into per-sample (mean, std) pairs; TASFAR itself never knows
/// which backend produced them.
///
/// Contract (docs/UNCERTAINTY.md): Predict is deterministic per
/// (estimator state, call index): for a fixed seed the k-th call returns
/// byte-identical results at every TASFAR_NUM_THREADS. Backends with no
/// per-call stochastic state (ensemble, Laplace) return byte-identical
/// results on *every* call. An estimator serves the one model it was
/// built over; a caller that swaps models builds a fresh estimator with
/// MakeEstimator, whose first Predict is call index 0 again.
class UncertaintyEstimator {
 public:
  virtual ~UncertaintyEstimator() = default;

  /// Per-sample predictive mean and std for every row of `inputs`
  /// ({n, in_dim}); n == 0 returns an empty vector.
  virtual std::vector<McPrediction> Predict(const Tensor& inputs) const = 0;
};

/// Everything MakeEstimator needs; a subset applies to each backend (the
/// backend matrix in docs/UNCERTAINTY.md says which).
struct EstimatorConfig {
  UncertaintyBackend backend = UncertaintyBackend::kMcDropout;
  /// Stochastic passes (MC dropout only). >= 2.
  size_t mc_samples = 20;
  /// Forward-pass batch rows (MC dropout and ensemble).
  size_t batch_size = 64;
  /// Root of every stochastic stream the estimator will use.
  uint64_t seed = 0x5eedULL;
  /// Members built by the ensemble backend via DeepEnsemble::FromSource
  /// (zero-copy clones of the source model with pinned per-member dropout
  /// streams). >= 2.
  size_t ensemble_members = 5;
};

/// Builds the configured backend over `model` (which must outlive the
/// estimator). This is the only sanctioned construction path outside
/// src/uncertainty/ — tools/analyze's estimator-discipline rule rejects
/// direct backend construction elsewhere under src/.
std::unique_ptr<UncertaintyEstimator> MakeEstimator(
    Sequential* model, const EstimatorConfig& config);

}  // namespace tasfar

#endif  // TASFAR_UNCERTAINTY_ESTIMATOR_H_
