#include "nn/activations.h"

#include <cmath>

#include "tensor/simd/dispatch.h"
#include "tensor/workspace.h"

namespace tasfar {

Tensor Relu::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out = Workspace::ThreadLocal().NewTensor(input.shape());
  ApplyInto(input, [](double x) { return x > 0.0 ? x : 0.0; }, &out);
  return out;
}

Tensor Relu::Backward(const Tensor& grad_output) {
  TASFAR_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad = Workspace::ThreadLocal().NewTensor(grad_output.shape());
  const double* in = cached_input_.data();
  const double* go = grad_output.data();
  double* g = grad.data();
  for (size_t i = 0; i < grad.size(); ++i) {
    g[i] = in[i] <= 0.0 ? 0.0 : go[i];
  }
  return grad;
}

void Relu::ForwardF32(const simd::F32Tensor& in, simd::F32Tensor* out,
                      bool /*training*/) {
  TASFAR_CHECK(out != nullptr && out != &in);
  out->Resize(in.rows(), in.cols());
  simd::Kernels().relu(in.data(), out->data(), in.size());
}

Tensor Tanh::Forward(const Tensor& input, bool /*training*/) {
  Tensor out = Workspace::ThreadLocal().NewTensor(input.shape());
  ApplyInto(input, [](double x) { return std::tanh(x); }, &out);
  // TASFAR_ANALYZE_ALLOW(workspace-escape): Backward reads this cache; pinning one pooled buffer per layer is the documented escape cost (docs/MEMORY.md).
  cached_output_ = out;
  return out;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  TASFAR_CHECK(grad_output.SameShape(cached_output_));
  Tensor grad = Workspace::ThreadLocal().NewTensor(grad_output.shape());
  const double* y = cached_output_.data();
  const double* go = grad_output.data();
  double* g = grad.data();
  for (size_t i = 0; i < grad.size(); ++i) {
    g[i] = go[i] * (1.0 - y[i] * y[i]);
  }
  return grad;
}

Tensor Sigmoid::Forward(const Tensor& input, bool /*training*/) {
  Tensor out = Workspace::ThreadLocal().NewTensor(input.shape());
  ApplyInto(input,
            [](double x) {
              // Numerically stable logistic.
              if (x >= 0.0) {
                const double z = std::exp(-x);
                return 1.0 / (1.0 + z);
              }
              const double z = std::exp(x);
              return z / (1.0 + z);
            },
            &out);
  // TASFAR_ANALYZE_ALLOW(workspace-escape): Backward reads this cache; pinning one pooled buffer per layer is the documented escape cost (docs/MEMORY.md).
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  TASFAR_CHECK(grad_output.SameShape(cached_output_));
  Tensor grad = Workspace::ThreadLocal().NewTensor(grad_output.shape());
  const double* y = cached_output_.data();
  const double* go = grad_output.data();
  double* g = grad.data();
  for (size_t i = 0; i < grad.size(); ++i) {
    g[i] = go[i] * (y[i] * (1.0 - y[i]));
  }
  return grad;
}

}  // namespace tasfar
