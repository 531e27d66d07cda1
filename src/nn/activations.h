#ifndef TASFAR_NN_ACTIVATIONS_H_
#define TASFAR_NN_ACTIVATIONS_H_

#include <memory>
#include <string>

#include "nn/layer.h"

namespace tasfar {

/// Rectified linear unit, elementwise max(0, x). Works on any rank.
class Relu : public Layer {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  bool SupportsF32() const override { return true; }
  void ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                  bool training) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Relu>();
  }
  std::string Name() const override { return "Relu"; }

 private:
  Tensor cached_input_;
};

/// Hyperbolic tangent activation.
class Tanh : public Layer {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Tanh>();
  }
  std::string Name() const override { return "Tanh"; }

 private:
  Tensor cached_output_;
};

/// Logistic sigmoid activation.
class Sigmoid : public Layer {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Sigmoid>();
  }
  std::string Name() const override { return "Sigmoid"; }

 private:
  Tensor cached_output_;
};

}  // namespace tasfar

#endif  // TASFAR_NN_ACTIVATIONS_H_
