#ifndef TASFAR_BASELINES_ADV_UDA_H_
#define TASFAR_BASELINES_ADV_UDA_H_

#include "baselines/uda_scheme.h"

namespace tasfar {

/// Options of the adversarial source-based UDA baseline (after Tzeng et
/// al., "Adversarial Discriminative Domain Adaptation").
struct AdvUdaOptions {
  size_t cut_layer = 0;        ///< Feature extractor = layers [0, cut).
  size_t epochs = 30;
  double learning_rate = 5e-4;
  double discriminator_lr = 1e-3;
  double adversarial_weight = 0.5;
};

/// Adversarial UDA: a domain discriminator (small sigmoid MLP on the
/// extractor features) learns to tell source features from target
/// features, while the extractor is simultaneously trained to fool it on
/// target batches — pushing target features into the source feature
/// distribution — alongside supervised steps on labeled source data.
class AdvUda : public UdaScheme {
 public:
  explicit AdvUda(const AdvUdaOptions& options);

  std::unique_ptr<Sequential> Adapt(const Sequential& source_model,
                                    const UdaContext& context,
                                    Rng* rng) override;
  std::string name() const override { return "ADV"; }

 private:
  AdvUdaOptions options_;
};

}  // namespace tasfar

#endif  // TASFAR_BASELINES_ADV_UDA_H_
