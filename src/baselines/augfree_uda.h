#ifndef TASFAR_BASELINES_AUGFREE_UDA_H_
#define TASFAR_BASELINES_AUGFREE_UDA_H_

#include "baselines/uda_scheme.h"

namespace tasfar {

/// Options of the augmentation-based source-free baseline (after Xiong et
/// al., "Source data-free domain adaptation of object detector through
/// domain-specific perturbation"); the paper's experiments use variance
/// perturbation as the augmentation.
struct AugfreeUdaOptions {
  size_t epochs = 20;
  double learning_rate = 5e-4;
  /// Perturbation magnitude relative to the per-feature standard
  /// deviation of the target batch ("variance perturbation").
  double perturbation_scale = 0.3;
};

/// Augmentation-consistency source-free UDA: perturbs target inputs with
/// noise scaled to the data variance (a hand-designed simulation of the
/// domain gap) and trains the model to predict the same outputs on the
/// perturbed inputs as on the clean ones. Effective only when the real
/// domain gap resembles the chosen augmentation — the target-specific
/// assumption TASFAR removes.
class AugfreeUda : public UdaScheme {
 public:
  explicit AugfreeUda(const AugfreeUdaOptions& options);

  std::unique_ptr<Sequential> Adapt(const Sequential& source_model,
                                    const UdaContext& context,
                                    Rng* rng) override;
  std::string name() const override { return "AUGfree"; }

 private:
  AugfreeUdaOptions options_;
};

}  // namespace tasfar

#endif  // TASFAR_BASELINES_AUGFREE_UDA_H_
