#include "nn/dense.h"

#include <cmath>
#include <cstdio>

#include "tensor/simd/dispatch.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace tasfar {

Dense::Dense(size_t in_dim, size_t out_dim, Rng* rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_({in_dim, out_dim}),
      bias_({out_dim}),
      grad_weight_({in_dim, out_dim}),
      grad_bias_({out_dim}) {
  TASFAR_CHECK(in_dim > 0 && out_dim > 0);
  TASFAR_CHECK(rng != nullptr);
  // He-uniform: U(-limit, limit) with limit = sqrt(6 / fan_in).
  const double limit = std::sqrt(6.0 / static_cast<double>(in_dim));
  weight_ = Tensor::RandomUniform({in_dim, out_dim}, rng, -limit, limit);
}

Tensor Dense::Forward(const Tensor& input, bool /*training*/) {
  TASFAR_CHECK_MSG(input.rank() == 2 && input.dim(1) == in_dim_,
                   "Dense expects a {batch, in_dim} input");
  cached_input_ = input;
  Workspace& ws = Workspace::ThreadLocal();
  Tensor out = ws.NewTensor({input.dim(0), out_dim_});
  MatMulInto(input, weight_, &out);
  // aliased: row broadcast is elementwise over out, in-place is allowed.
  AddRowBroadcastInto(out, bias_, &out);
  return out;
}

void Dense::ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                       bool /*training*/) {
  TASFAR_CHECK(out != nullptr && out != &in);
  TASFAR_CHECK_MSG(in.cols() == in_dim_, "Dense expects a {batch, in_dim} input");
  weight_f32_.FromTensor(weight_);
  bias_f32_.FromTensor(bias_);
  out->ResizeZeroed(in.rows(), out_dim_);
  simd::MatMulF32Raw(in.data(), weight_f32_.data(), out->data(), in.rows(),
                     in_dim_, out_dim_);
  const simd::F32Kernels& kernels = simd::Kernels();
  for (size_t r = 0; r < out->rows(); ++r) {
    float* row = out->data() + r * out_dim_;
    // aliased: row broadcast is elementwise over out, in-place is allowed.
    kernels.add(row, bias_f32_.data(), row, out_dim_);
  }
}

Tensor Dense::Backward(const Tensor& grad_output) {
  BackwardParams(grad_output);
  Workspace& ws = Workspace::ThreadLocal();
  Tensor weight_t = ws.NewTensor({out_dim_, in_dim_});
  TransposedInto(weight_, &weight_t);
  Tensor grad_in = ws.NewTensor({grad_output.dim(0), in_dim_});
  MatMulInto(grad_output, weight_t, &grad_in);
  return grad_in;
}

void Dense::BackwardParams(const Tensor& grad_output) {
  TASFAR_CHECK(grad_output.rank() == 2 && grad_output.dim(1) == out_dim_);
  TASFAR_CHECK_MSG(cached_input_.size() > 0, "Backward before Forward");
  TASFAR_CHECK(grad_output.dim(0) == cached_input_.dim(0));
  const size_t batch = grad_output.dim(0);
  Workspace& ws = Workspace::ThreadLocal();
  Tensor input_t = ws.NewTensor({in_dim_, batch});
  TransposedInto(cached_input_, &input_t);
  Tensor grad_w = ws.NewTensor({in_dim_, out_dim_});
  MatMulInto(input_t, grad_output, &grad_w);
  grad_weight_ += grad_w;
  for (size_t i = 0; i < batch; ++i) {
    for (size_t j = 0; j < out_dim_; ++j) {
      grad_bias_[j] += grad_output.At(i, j);
    }
  }
}

std::unique_ptr<Layer> Dense::Clone() const {
  auto copy = std::make_unique<Dense>(*this);
  copy->cached_input_ = Tensor();
  return copy;
}

std::string Dense::Name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "Dense(%zu->%zu)", in_dim_, out_dim_);
  return buf;
}

}  // namespace tasfar
