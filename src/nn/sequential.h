#ifndef TASFAR_NN_SEQUENTIAL_H_
#define TASFAR_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace tasfar {

/// A feed-forward chain of layers, itself a Layer.
///
/// Besides plain Forward/Backward, Sequential supports partial passes.
/// ForwardTo() exposes the activation after a prefix of the chain (the
/// "feature extractor" output) and BackwardFrom() backpropagates a
/// gradient injected at that cut point, which is how the UDA baselines'
/// MMD / adversarial / feature-histogram alignment losses reach the
/// extractor weights. The stochastic-pass estimators use ForwardFrom and
/// the layer-range ForwardF32 the same way: they run the deterministic
/// trunk once per Predict and only the layers from the first stochastic
/// one onward per pass (uncertainty/stochastic_passes.h).
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer, taking ownership. Returns *this for chaining.
  Sequential& Add(std::unique_ptr<Layer> layer);

  /// Convenience: constructs L in place.
  template <typename L, typename... Args>
  Sequential& Emplace(Args&&... args) {
    return Add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  size_t NumLayers() const { return layers_.size(); }
  Layer& layer(size_t i) {
    TASFAR_CHECK(i < layers_.size());
    return *layers_[i];
  }

  // --- Layer interface -------------------------------------------------

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  /// BackwardFrom(grad_output, NumLayers()).
  void BackwardParams(const Tensor& grad_output) override;
  /// True only when every child layer supports f32 (an empty chain is the
  /// identity and trivially supports it).
  bool SupportsF32() const override;
  /// Chains the children's ForwardF32 through two owned staging buffers
  /// (ping-pong), writing the last layer straight into `out` — zero
  /// reallocation in steady state.
  void ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                  bool training) override;
  /// ForwardF32 over layers [begin, end) only; an empty range copies `in`.
  void ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                  bool training, size_t begin, size_t end);
  std::vector<Tensor*> Params() override;
  std::vector<Tensor*> Grads() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override;
  /// Recurses with a distinct MixSeed(seed, layer_index) per layer.
  void ReseedStochastic(uint64_t seed) override;
  /// True when any layer holds stochastic state.
  bool HasStochasticState() const override;

  // --- Partial passes ----------------------------------------------------

  /// Runs layers [0, cut) and returns the activation at the cut point.
  /// Caches are populated, so BackwardFrom(cut, ...) may follow.
  Tensor ForwardTo(const Tensor& input, size_t cut, bool training);

  /// Runs layers [cut, end) on a given activation (e.g. the output of
  /// ForwardTo); together with Forward this lets callers recompute the head
  /// on perturbed features.
  Tensor ForwardFrom(const Tensor& features, size_t cut, bool training);

  /// Backpropagates `grad` injected after layer index `cut`-1, accumulating
  /// the parameter gradients of layers [0, cut). Layer 0 gets the
  /// BackwardParams call, so no input gradient is computed.
  void BackwardFrom(const Tensor& grad, size_t cut);

  /// Deep copy with concrete type (Clone() returns Layer).
  std::unique_ptr<Sequential> CloneSequential() const;

  /// Total number of scalar parameters.
  size_t ParameterCount();

  /// Copies all parameter values from `other` (same architecture required).
  void CopyParamsFrom(Sequential& other);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  // ForwardF32 ping-pong staging; capacity persists across calls.
  simd::F32Tensor stage_a_;
  simd::F32Tensor stage_b_;
};

}  // namespace tasfar

#endif  // TASFAR_NN_SEQUENTIAL_H_
