#ifndef TASFAR_NN_LAYER_H_
#define TASFAR_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/simd/f32_tensor.h"
#include "tensor/tensor.h"

namespace tasfar {

/// Interface of a differentiable network layer.
///
/// The library uses layer-wise backpropagation instead of a tape autograd:
/// every network in this repo is a static feed-forward chain, so each layer
/// caches what its Backward pass needs during Forward, and Backward returns
/// the gradient with respect to the layer input while accumulating the
/// gradients of its own parameters.
///
/// Contract:
///  - Backward must be called with the gradient of the loss with respect to
///    the output of the *most recent* Forward call.
///  - Parameter gradients accumulate across Backward and BackwardParams
///    calls until ZeroGrads() is invoked (this enables gradient
///    accumulation).
///  - Clone() deep-copies parameters and configuration; cached activations
///    are not cloned.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. `training` toggles train-time behaviour
  /// (e.g. dropout masking); Monte-Carlo dropout inference passes
  /// training=true deliberately.
  virtual Tensor Forward(const Tensor& input, bool training) = 0;

  /// Backpropagates `grad_output` (d loss / d output) through the layer,
  /// returning d loss / d input and accumulating parameter gradients.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Accumulates the same parameter gradients as Backward, byte for byte,
  /// and produces no input gradient: for callers that would drop it (the
  /// trainers, and the first layer of a Sequential). The default runs
  /// Backward and drops the result; Conv1d, Conv2d, Dense and the
  /// containers override it to skip the input-gradient work.
  virtual void BackwardParams(const Tensor& grad_output) {
    Backward(grad_output);
  }

  /// Trainable parameter tensors (possibly empty). Pointers remain valid
  /// for the lifetime of the layer.
  virtual std::vector<Tensor*> Params() { return {}; }

  /// Gradient tensors, parallel to Params().
  virtual std::vector<Tensor*> Grads() { return {}; }

  /// Resets all parameter gradients to zero.
  void ZeroGrads() {
    for (Tensor* g : Grads()) g->Fill(0.0);
  }

  /// Deep copy of parameters and configuration.
  virtual std::unique_ptr<Layer> Clone() const = 0;

  /// Re-seeds every stochastic stream in the layer (dropout masks today)
  /// from `seed`, deterministically: the same seed always reproduces the
  /// same mask sequence on the next Forward calls. Containers recurse,
  /// deriving a distinct child seed per sub-layer via MixSeed, so one root
  /// seed pins the randomness of a whole model replica — this is how
  /// MC-dropout makes its parallel stochastic passes bit-reproducible at
  /// any thread count (docs/THREADING.md). Layers without stochastic state
  /// ignore the call.
  virtual void ReseedStochastic(uint64_t seed) { (void)seed; }

  /// True when Forward(training=true) draws from a stochastic stream (a
  /// Dropout with rate > 0, or a container holding one). A layer without
  /// stochastic state gives the same output on every MC-dropout pass, so
  /// the estimators run the leading run of such layers once per call
  /// (uncertainty/stochastic_passes.h).
  virtual bool HasStochasticState() const { return false; }

  /// Diagnostic layer name, e.g. "Dense(16->8)".
  virtual std::string Name() const = 0;

  // --- Float32 compute mode (docs/MEMORY.md §"Float32 compute mode") ----

  /// True when the layer implements ForwardF32. Containers report true
  /// only when every child does; callers fall back to the double Forward
  /// otherwise. Training always runs in double — only inference has an
  /// f32 path.
  virtual bool SupportsF32() const { return false; }

  /// Inference-only float32 forward pass through the simd kernel
  /// dispatcher (tensor/simd/dispatch.h). Weights stay double and are
  /// narrowed at the layer boundary; no Backward caches are populated,
  /// so Backward after ForwardF32 is invalid. Stochastic layers must
  /// consume their RNG streams exactly as the double Forward would, so a
  /// reseeded replica produces the same mask pattern on either path.
  /// `out` must not alias `in`. Only valid when SupportsF32().
  virtual void ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                          bool training) {
    (void)in;
    (void)out;
    (void)training;
    TASFAR_CHECK_MSG(false, "ForwardF32 called on a layer without f32 "
                            "support (check SupportsF32 first)");
  }
};

}  // namespace tasfar

#endif  // TASFAR_NN_LAYER_H_
