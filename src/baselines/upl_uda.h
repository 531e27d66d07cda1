#ifndef TASFAR_BASELINES_UPL_UDA_H_
#define TASFAR_BASELINES_UPL_UDA_H_

#include "baselines/uda_scheme.h"
#include "uncertainty/estimator.h"

namespace tasfar {

/// Options of the uncertainty-filtered pseudo-label baseline (after
/// "Uncertainty-Aware Pseudo-Label Filtering for Source-Free Unsupervised
/// Domain Adaptation", arXiv:2403.11256, transplanted to regression).
struct UplUdaOptions {
  size_t epochs = 20;
  double learning_rate = 5e-4;
  /// Backend/sample-count knobs of the uncertainty pass.
  EstimatorConfig estimator;
};

/// Uncertainty-aware pseudo-label filtering: one uncertainty pass ranks
/// the target rows, the highest-uncertainty tail is dropped outright, and
/// the clone self-trains (unweighted MSE) on the survivors' own predictive
/// means. The hard filter is the foil to UncertaintySdUda's soft weights:
/// it never trains on bad pseudo-labels, but also never learns anything
/// about the uncertain region — exactly where the domain gap lives, which
/// is the gap TASFAR's pseudo-label distribution targets.
class UplUda : public UdaScheme {
 public:
  explicit UplUda(const UplUdaOptions& options);

  std::unique_ptr<Sequential> Adapt(const Sequential& source_model,
                                    const UdaContext& context,
                                    Rng* rng) override;
  std::string name() const override { return "UPL"; }

 private:
  UplUdaOptions options_;
};

}  // namespace tasfar

#endif  // TASFAR_BASELINES_UPL_UDA_H_
