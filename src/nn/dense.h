#ifndef TASFAR_NN_DENSE_H_
#define TASFAR_NN_DENSE_H_

#include <memory>
#include <string>

#include "nn/layer.h"

namespace tasfar {

class Rng;

/// Fully connected layer: y = x W + b for a rank-2 input {batch, in_dim}.
///
/// Weights are initialized with He-uniform scaling (suitable for the
/// ReLU-family activations used throughout the repo).
class Dense : public Layer {
 public:
  /// Randomly initialized layer; `rng` must outlive the call.
  Dense(size_t in_dim, size_t out_dim, Rng* rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void BackwardParams(const Tensor& grad_output) override;
  bool SupportsF32() const override { return true; }
  void ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                  bool training) override;
  std::vector<Tensor*> Params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> Grads() override { return {&grad_weight_, &grad_bias_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

  /// Direct access for tests and serialization.
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  size_t in_dim_;
  size_t out_dim_;
  Tensor weight_;       ///< {in_dim, out_dim}
  Tensor bias_;         ///< {out_dim}
  Tensor grad_weight_;  ///< {in_dim, out_dim}
  Tensor grad_bias_;    ///< {out_dim}
  Tensor cached_input_;
  // Narrowed-weight staging for ForwardF32, refreshed from the double
  // parameters on every call (no cache: weights mutate under adaptation).
  simd::F32Tensor weight_f32_;
  simd::F32Tensor bias_f32_;
};

}  // namespace tasfar

#endif  // TASFAR_NN_DENSE_H_
