#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "nn/conv_kernel.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace tasfar {

Conv2d::Conv2d(size_t in_channels, size_t out_channels, size_t kernel_size,
               Rng* rng, size_t stride, size_t padding)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding),
      weight_({out_channels, in_channels, kernel_size, kernel_size}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel_size, kernel_size}),
      grad_bias_({out_channels}) {
  TASFAR_CHECK(in_channels > 0 && out_channels > 0 && kernel_size > 0);
  TASFAR_CHECK(stride > 0);
  TASFAR_CHECK(rng != nullptr);
  const double fan_in = static_cast<double>(in_channels) *
                        static_cast<double>(kernel_size * kernel_size);
  const double limit = std::sqrt(6.0 / fan_in);
  weight_ = Tensor::RandomUniform(
      {out_channels, in_channels, kernel_size, kernel_size}, rng, -limit,
      limit);
}

size_t Conv2d::OutputExtent(size_t n) const {
  TASFAR_CHECK_MSG(n + 2 * padding_ >= kernel_size_,
                   "Conv2d input smaller than kernel");
  return (n + 2 * padding_ - kernel_size_) / stride_ + 1;
}

ConvGeometry Conv2d::Geometry(size_t batch, size_t h_in, size_t w_in) const {
  ConvGeometry g;
  g.batch = batch;
  g.in_channels = in_channels_;
  g.out_channels = out_channels_;
  g.h = {h_in, OutputExtent(h_in), kernel_size_, stride_, padding_, 1};
  g.w = {w_in, OutputExtent(w_in), kernel_size_, stride_, padding_, 1};
  return g;
}

Tensor Conv2d::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() == 4 && input.dim(1) == in_channels_,
                   "Conv2d expects a {batch, in_channels, h, w} input");
  cached_input_ = input;
  const ConvGeometry g = Geometry(input.dim(0), input.dim(2), input.dim(3));
  // Every element is assigned by ConvForward; uninitialized workspace
  // contents are safe.
  Tensor out = Workspace::ThreadLocal().NewTensor(
      {g.batch, out_channels_, g.h.out, g.w.out});
  ConvForward(g, input.data(), std::as_const(weight_).data(),
              std::as_const(bias_).data(), out.data());
  return out;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  Tensor grad_input;
  RunBackward(grad_output, &grad_input);
  return grad_input;
}

void Conv2d::BackwardParams(const Tensor& grad_output) {
  RunBackward(grad_output, nullptr);
}

void Conv2d::RunBackward(const Tensor& grad_output, Tensor* grad_input) {
  TASFAR_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  const ConvGeometry g = Geometry(cached_input_.dim(0), cached_input_.dim(2),
                                  cached_input_.dim(3));
  TASFAR_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == g.batch &&
               grad_output.dim(1) == out_channels_ &&
               grad_output.dim(2) == g.h.out && grad_output.dim(3) == g.w.out);
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

std::unique_ptr<Layer> Conv2d::Clone() const {
  auto copy = std::make_unique<Conv2d>(*this);
  copy->cached_input_ = Tensor();
  return copy;
}

std::string Conv2d::Name() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "Conv2d(%zu->%zu,k=%zu,s=%zu,p=%zu)",
                in_channels_, out_channels_, kernel_size_, stride_, padding_);
  return buf;
}

MaxPool2d::MaxPool2d(size_t window) : window_(window) {
  TASFAR_CHECK(window > 0);
}

Tensor MaxPool2d::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() == 4, "MaxPool2d expects a rank-4 input");
  cached_input_ = input;
  const size_t batch = input.dim(0), ch = input.dim(1);
  const size_t h_in = input.dim(2), w_in = input.dim(3);
  TASFAR_CHECK_MSG(h_in >= window_ && w_in >= window_,
                   "MaxPool2d window larger than input");
  const size_t h_out = h_in / window_, w_out = w_in / window_;
  Tensor out = Workspace::ThreadLocal().NewTensor({batch, ch, h_out, w_out});
  argmax_.resize(out.size());
  const double* x = input.data();
  double* o = out.data();
  size_t flat = 0;
  for (size_t plane = 0; plane < batch * ch; ++plane) {
    const size_t base = plane * h_in * w_in;
    for (size_t ho = 0; ho < h_out; ++ho) {
      for (size_t wo = 0; wo < w_out; ++wo, ++flat) {
        double best = -std::numeric_limits<double>::infinity();
        size_t best_idx = 0;
        for (size_t kh = 0; kh < window_; ++kh) {
          const size_t row = base + (ho * window_ + kh) * w_in + wo * window_;
          for (size_t kw = 0; kw < window_; ++kw) {
            if (x[row + kw] > best) {
              best = x[row + kw];
              best_idx = row + kw;
            }
          }
        }
        o[flat] = best;
        argmax_[flat] = best_idx;
      }
    }
  }
  return out;
}

Tensor MaxPool2d::Backward(const Tensor& grad_output) {
  TASFAR_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  TASFAR_CHECK(grad_output.size() == argmax_.size());
  Tensor grad_input =
      Workspace::ThreadLocal().ZeroTensor(cached_input_.shape());
  const double* go = grad_output.data();
  double* gi = grad_input.data();
  for (size_t i = 0; i < argmax_.size(); ++i) gi[argmax_[i]] += go[i];
  return grad_input;
}

std::unique_ptr<Layer> MaxPool2d::Clone() const {
  return std::make_unique<MaxPool2d>(window_);
}

std::string MaxPool2d::Name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "MaxPool2d(%zu)", window_);
  return buf;
}

Tensor Flatten::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() >= 2, "Flatten expects rank >= 2");
  cached_shape_ = input.shape();
  size_t features = 1;
  for (size_t i = 1; i < input.rank(); ++i) features *= input.dim(i);
  return input.Reshape({input.dim(0), features});
}

Tensor Flatten::Backward(const Tensor& grad_output) {
  TASFAR_CHECK_MSG(!cached_shape_.empty(), "Backward before Forward");
  return grad_output.Reshape(cached_shape_);
}

Tensor GlobalAvgPool2d::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() == 4, "GlobalAvgPool2d expects rank-4 input");
  cached_shape_ = input.shape();
  const size_t batch = input.dim(0), ch = input.dim(1);
  const size_t hw = input.dim(2) * input.dim(3);
  Tensor out = Workspace::ThreadLocal().NewTensor({batch, ch});
  const double* x = input.data();
  double* o = out.data();
  for (size_t plane = 0; plane < batch * ch; ++plane) {
    double s = 0.0;
    for (size_t i = 0; i < hw; ++i) s += x[plane * hw + i];
    o[plane] = s / static_cast<double>(hw);
  }
  return out;
}

Tensor GlobalAvgPool2d::Backward(const Tensor& grad_output) {
  TASFAR_CHECK_MSG(!cached_shape_.empty(), "Backward before Forward");
  // Every element is assigned below.
  Tensor grad_input = Workspace::ThreadLocal().NewTensor(cached_shape_);
  const size_t planes = cached_shape_[0] * cached_shape_[1];
  const size_t hw = cached_shape_[2] * cached_shape_[3];
  TASFAR_CHECK(grad_output.rank() == 2 && grad_output.size() == planes);
  const double scale = 1.0 / static_cast<double>(hw);
  const double* go = grad_output.data();
  double* gi = grad_input.data();
  for (size_t plane = 0; plane < planes; ++plane) {
    std::fill(gi + plane * hw, gi + (plane + 1) * hw, go[plane] * scale);
  }
  return grad_input;
}

}  // namespace tasfar
