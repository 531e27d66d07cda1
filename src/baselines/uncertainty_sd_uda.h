#ifndef TASFAR_BASELINES_UNCERTAINTY_SD_UDA_H_
#define TASFAR_BASELINES_UNCERTAINTY_SD_UDA_H_

#include "baselines/uda_scheme.h"
#include "uncertainty/estimator.h"

namespace tasfar {

/// Options of the uncertainty-guided self-distillation baseline (after
/// Roy et al., "Uncertainty-guided Source-free Domain Adaptation",
/// arXiv:2208.07591, transplanted from classification to regression).
struct UncertaintySdUdaOptions {
  size_t epochs = 20;
  double learning_rate = 5e-4;
  /// Backend/sample-count knobs of the uncertainty pass (the scheme is
  /// estimator-agnostic, like TASFAR itself).
  EstimatorConfig estimator;
};

/// Uncertainty-guided self-distillation: one uncertainty pass over the
/// target set produces per-sample pseudo-labels (the predictive mean) and
/// soft weights 1 / (1 + u_i / mean(u)) that down-weight — but never
/// discard — the samples the source model is unsure about; the clone then
/// fine-tunes on the weighted MSE to its own pseudo-labels. This is the
/// "weight by uncertainty" half of the design space; TASFAR instead turns
/// uncertainty into a label *distribution* and keeps per-cell credibility,
/// and UplUda is the "filter by uncertainty" half.
class UncertaintySdUda : public UdaScheme {
 public:
  explicit UncertaintySdUda(const UncertaintySdUdaOptions& options);

  std::unique_ptr<Sequential> Adapt(const Sequential& source_model,
                                    const UdaContext& context,
                                    Rng* rng) override;
  std::string name() const override { return "U-SFDA"; }

 private:
  UncertaintySdUdaOptions options_;
};

}  // namespace tasfar

#endif  // TASFAR_BASELINES_UNCERTAINTY_SD_UDA_H_
