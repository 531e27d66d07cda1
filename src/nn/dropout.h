#ifndef TASFAR_NN_DROPOUT_H_
#define TASFAR_NN_DROPOUT_H_

#include <memory>
#include <string>

#include "nn/layer.h"
#include "util/rng.h"

namespace tasfar {

/// Inverted dropout: during training each element is zeroed with
/// probability `rate` and survivors are scaled by 1/(1-rate); at inference
/// (training=false) the layer is the identity.
///
/// Monte-Carlo dropout uncertainty estimation (Section IV-A of the paper:
/// 20 stochastic passes at rate 0.2) is obtained by calling Forward with
/// training=true at prediction time; see uncertainty/mc_dropout.h.
class Dropout : public Layer {
 public:
  /// `rate` in [0, 1); `seed` makes masks reproducible.
  explicit Dropout(double rate, uint64_t seed = 0x5eedULL);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  bool SupportsF32() const override { return true; }
  /// Draws exactly one Bernoulli per element — the same stream consumption
  /// as the double Forward, so a reseeded replica produces the same mask
  /// pattern on either path (the mask values are float(1/keep) vs double).
  void ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                  bool training) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override;

  /// Restarts the mask stream from `seed` (same seed ⇒ same masks on the
  /// following Forward calls).
  void ReseedStochastic(uint64_t seed) override;
  bool HasStochasticState() const override { return rate_ > 0.0; }

  double rate() const { return rate_; }

 private:
  double rate_;
  uint64_t seed_;
  Rng rng_;
  Tensor mask_;        ///< Scaled keep-mask of the last training forward.
  simd::F32Tensor mask_f32_;  ///< Staging mask for ForwardF32 (no Backward).
  bool last_training_ = false;
};

}  // namespace tasfar

#endif  // TASFAR_NN_DROPOUT_H_
