#ifndef TASFAR_NN_CONV1D_H_
#define TASFAR_NN_CONV1D_H_

#include <memory>
#include <string>

#include "nn/layer.h"

namespace tasfar {

class Rng;
struct ConvGeometry;

/// 1-D convolution over {batch, channels, time} tensors with optional
/// dilation, the building block of the TCN-style PDR regressor (the paper's
/// RoNIN baseline is a temporal-convolutional network).
///
/// Output length: (T + 2*padding - dilation*(kernel-1) - 1) / stride + 1.
class Conv1d : public Layer {
 public:
  Conv1d(size_t in_channels, size_t out_channels, size_t kernel_size,
         Rng* rng, size_t stride = 1, size_t padding = 0, size_t dilation = 1);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void BackwardParams(const Tensor& grad_output) override;
  std::vector<Tensor*> Params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> Grads() override { return {&grad_weight_, &grad_bias_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override;

  /// Output time length for an input of time length `t`.
  size_t OutputLength(size_t t) const;

 private:
  // Accumulates the parameter gradients and, unless `grad_input` is null,
  // sets it to the input gradient.
  void RunBackward(const Tensor& grad_output, Tensor* grad_input);
  ConvGeometry Geometry(size_t batch, size_t t_in) const;

  size_t in_channels_, out_channels_, kernel_size_;
  size_t stride_, padding_, dilation_;
  Tensor weight_;       ///< {out_ch, in_ch, kernel}
  Tensor bias_;         ///< {out_ch}
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;
};

}  // namespace tasfar

#endif  // TASFAR_NN_CONV1D_H_
