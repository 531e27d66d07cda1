#ifndef TASFAR_NN_CONV2D_H_
#define TASFAR_NN_CONV2D_H_

#include <memory>
#include <string>

#include "nn/layer.h"

namespace tasfar {

class Rng;
struct ConvGeometry;

/// 2-D convolution over {batch, channels, height, width} tensors — the
/// building block of the multi-column CNN crowd counter (the paper's MCNN
/// baseline).
class Conv2d : public Layer {
 public:
  Conv2d(size_t in_channels, size_t out_channels, size_t kernel_size,
         Rng* rng, size_t stride = 1, size_t padding = 0);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void BackwardParams(const Tensor& grad_output) override;
  std::vector<Tensor*> Params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> Grads() override { return {&grad_weight_, &grad_bias_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override;

  /// Output spatial extent for an input extent `n` (square kernels).
  size_t OutputExtent(size_t n) const;

 private:
  // Accumulates the parameter gradients and, unless `grad_input` is null,
  // sets it to the input gradient.
  void RunBackward(const Tensor& grad_output, Tensor* grad_input);
  ConvGeometry Geometry(size_t batch, size_t h_in, size_t w_in) const;

  size_t in_channels_, out_channels_, kernel_size_, stride_, padding_;
  Tensor weight_;  ///< {out_ch, in_ch, k, k}
  Tensor bias_;    ///< {out_ch}
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;
};

/// 2×2 (configurable) max pooling with stride equal to the window size.
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(size_t window = 2);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override;

 private:
  size_t window_;
  Tensor cached_input_;
  std::vector<size_t> argmax_;  ///< Flat input index of each output element.
};

/// Collapses {batch, d1, d2, ...} to {batch, d1*d2*...}.
class Flatten : public Layer {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Flatten>();
  }
  std::string Name() const override { return "Flatten"; }

 private:
  std::vector<size_t> cached_shape_;
};

/// Global average pooling: {batch, ch, h, w} -> {batch, ch}.
class GlobalAvgPool2d : public Layer {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<GlobalAvgPool2d>();
  }
  std::string Name() const override { return "GlobalAvgPool2d"; }

 private:
  std::vector<size_t> cached_shape_;
};

}  // namespace tasfar

#endif  // TASFAR_NN_CONV2D_H_
