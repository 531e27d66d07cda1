#include "nn/conv1d.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "nn/conv_kernel.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace tasfar {

Conv1d::Conv1d(size_t in_channels, size_t out_channels, size_t kernel_size,
               Rng* rng, size_t stride, size_t padding, size_t dilation)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding),
      dilation_(dilation),
      weight_({out_channels, in_channels, kernel_size}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel_size}),
      grad_bias_({out_channels}) {
  TASFAR_CHECK(in_channels > 0 && out_channels > 0 && kernel_size > 0);
  TASFAR_CHECK(stride > 0 && dilation > 0);
  TASFAR_CHECK(rng != nullptr);
  const double fan_in =
      static_cast<double>(in_channels) * static_cast<double>(kernel_size);
  const double limit = std::sqrt(6.0 / fan_in);
  weight_ = Tensor::RandomUniform({out_channels, in_channels, kernel_size},
                                  rng, -limit, limit);
}

size_t Conv1d::OutputLength(size_t t) const {
  const size_t effective = dilation_ * (kernel_size_ - 1) + 1;
  TASFAR_CHECK_MSG(t + 2 * padding_ >= effective,
                   "Conv1d input shorter than effective kernel");
  return (t + 2 * padding_ - effective) / stride_ + 1;
}

ConvGeometry Conv1d::Geometry(size_t batch, size_t t_in) const {
  ConvGeometry g;
  g.batch = batch;
  g.in_channels = in_channels_;
  g.out_channels = out_channels_;
  g.w = {t_in, OutputLength(t_in), kernel_size_, stride_, padding_, dilation_};
  return g;
}

Tensor Conv1d::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() == 3 && input.dim(1) == in_channels_,
                   "Conv1d expects a {batch, in_channels, time} input");
  cached_input_ = input;
  const ConvGeometry g = Geometry(input.dim(0), input.dim(2));
  // Every element is assigned by ConvForward, so the uninitialized
  // workspace tensor is safe.
  Tensor out =
      Workspace::ThreadLocal().NewTensor({g.batch, out_channels_, g.w.out});
  ConvForward(g, input.data(), std::as_const(weight_).data(),
              std::as_const(bias_).data(), out.data());
  return out;
}

Tensor Conv1d::Backward(const Tensor& grad_output) {
  Tensor grad_input;
  RunBackward(grad_output, &grad_input);
  return grad_input;
}

void Conv1d::BackwardParams(const Tensor& grad_output) {
  RunBackward(grad_output, nullptr);
}

void Conv1d::RunBackward(const Tensor& grad_output, Tensor* grad_input) {
  TASFAR_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  const ConvGeometry g = Geometry(cached_input_.dim(0), cached_input_.dim(2));
  TASFAR_CHECK(grad_output.rank() == 3 && grad_output.dim(0) == g.batch &&
               grad_output.dim(1) == out_channels_ &&
               grad_output.dim(2) == g.w.out);
  double* gi = nullptr;
  if (grad_input != nullptr) {
    // Every element is assigned by ConvBackward.
    *grad_input = Workspace::ThreadLocal().NewTensor(cached_input_.shape());
    gi = grad_input->data();
  }
  ConvBackward(g, std::as_const(cached_input_).data(),
               std::as_const(weight_).data(), grad_output.data(),
               grad_weight_.data(), grad_bias_.data(), gi);
}

std::unique_ptr<Layer> Conv1d::Clone() const {
  auto copy = std::make_unique<Conv1d>(*this);
  copy->cached_input_ = Tensor();
  return copy;
}

std::string Conv1d::Name() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "Conv1d(%zu->%zu,k=%zu,s=%zu,p=%zu,d=%zu)",
                in_channels_, out_channels_, kernel_size_, stride_, padding_,
                dilation_);
  return buf;
}

}  // namespace tasfar
