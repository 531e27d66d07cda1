#include <cmath>
#include <cstddef>

#include "tensor/simd/kernels.h"

namespace tasfar::simd {

namespace {

// Reference matmul: i-p-j order streams one row of b per p while the c row
// stays hot, so the reference is usable as a real (forced-scalar) backend,
// not just an oracle. Per output element the accumulation is one
// correctly-rounded std::fmaf per ascending p, with no zero skip — the
// exact sequence the vector backends reproduce lane-wise (kernels.h).
void ScalarMatMul(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (size_t p = 0; p < k; ++p) {
      const float av = a_row[p];
      const float* b_row = b + p * n;
      for (size_t j = 0; j < n; ++j) {
        c_row[j] = std::fmaf(av, b_row[j], c_row[j]);
      }
    }
  }
}

void ScalarAdd(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

void ScalarMul(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

void ScalarRelu(const float* in, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float x = in[i];
    out[i] = (x > 0.0f) ? x : 0.0f;
  }
}

}  // namespace

const F32Kernels& ScalarKernels() {
  static const F32Kernels kTable = {
      .name = "scalar",
      .matmul = ScalarMatMul,
      .add = ScalarAdd,
      .mul = ScalarMul,
      .relu = ScalarRelu,
  };
  return kTable;
}

}  // namespace tasfar::simd
