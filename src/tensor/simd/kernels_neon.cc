// NEON float32 backend (aarch64). Together with kernels_avx2.cc this is
// the only place raw intrinsics are allowed (`simd-discipline` rule).
// Every kernel reproduces the scalar reference bit-for-bit — see the
// contract in kernels.h. Note relu deliberately uses compare+select
// rather than vmaxq_f32: NEON vmax propagates NaN, while the contract
// (and the AVX2 maxps form) maps NaN to +0.0f.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>
#include <cstddef>

#include "tensor/simd/kernels.h"

namespace tasfar::simd {
namespace {

// 4 rows × 8 columns register tile mirroring the AVX2 kernel: eight q
// accumulators over four independent row chains keep the FMA pipes busy
// for narrow n. One fused multiply-add per ascending p per element, no
// zero skip — bit-identical to the scalar reference (kernels.h).
void NeonMatMul(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      float32x4_t acc00 = vld1q_f32(c0 + j);
      float32x4_t acc01 = vld1q_f32(c0 + j + 4);
      float32x4_t acc10 = vld1q_f32(c1 + j);
      float32x4_t acc11 = vld1q_f32(c1 + j + 4);
      float32x4_t acc20 = vld1q_f32(c2 + j);
      float32x4_t acc21 = vld1q_f32(c2 + j + 4);
      float32x4_t acc30 = vld1q_f32(c3 + j);
      float32x4_t acc31 = vld1q_f32(c3 + j + 4);
      for (size_t p = 0; p < k; ++p) {
        const float* b_row = b + p * n + j;
        const float32x4_t vb0 = vld1q_f32(b_row);
        const float32x4_t vb1 = vld1q_f32(b_row + 4);
        const float32x4_t va0 = vdupq_n_f32(a0[p]);
        acc00 = vfmaq_f32(acc00, vb0, va0);
        acc01 = vfmaq_f32(acc01, vb1, va0);
        const float32x4_t va1 = vdupq_n_f32(a1[p]);
        acc10 = vfmaq_f32(acc10, vb0, va1);
        acc11 = vfmaq_f32(acc11, vb1, va1);
        const float32x4_t va2 = vdupq_n_f32(a2[p]);
        acc20 = vfmaq_f32(acc20, vb0, va2);
        acc21 = vfmaq_f32(acc21, vb1, va2);
        const float32x4_t va3 = vdupq_n_f32(a3[p]);
        acc30 = vfmaq_f32(acc30, vb0, va3);
        acc31 = vfmaq_f32(acc31, vb1, va3);
      }
      vst1q_f32(c0 + j, acc00);
      vst1q_f32(c0 + j + 4, acc01);
      vst1q_f32(c1 + j, acc10);
      vst1q_f32(c1 + j + 4, acc11);
      vst1q_f32(c2 + j, acc20);
      vst1q_f32(c2 + j + 4, acc21);
      vst1q_f32(c3 + j, acc30);
      vst1q_f32(c3 + j + 4, acc31);
    }
    for (; j + 4 <= n; j += 4) {
      float32x4_t acc0 = vld1q_f32(c0 + j);
      float32x4_t acc1 = vld1q_f32(c1 + j);
      float32x4_t acc2 = vld1q_f32(c2 + j);
      float32x4_t acc3 = vld1q_f32(c3 + j);
      for (size_t p = 0; p < k; ++p) {
        const float32x4_t vb = vld1q_f32(b + p * n + j);
        acc0 = vfmaq_f32(acc0, vb, vdupq_n_f32(a0[p]));
        acc1 = vfmaq_f32(acc1, vb, vdupq_n_f32(a1[p]));
        acc2 = vfmaq_f32(acc2, vb, vdupq_n_f32(a2[p]));
        acc3 = vfmaq_f32(acc3, vb, vdupq_n_f32(a3[p]));
      }
      vst1q_f32(c0 + j, acc0);
      vst1q_f32(c1 + j, acc1);
      vst1q_f32(c2 + j, acc2);
      vst1q_f32(c3 + j, acc3);
    }
    // Column tail: four independent scalar fmaf chains.
    for (; j < n; ++j) {
      float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
      for (size_t p = 0; p < k; ++p) {
        const float bv = b[p * n + j];
        s0 = std::fmaf(a0[p], bv, s0);
        s1 = std::fmaf(a1[p], bv, s1);
        s2 = std::fmaf(a2[p], bv, s2);
        s3 = std::fmaf(a3[p], bv, s3);
      }
      c0[j] = s0;
      c1[j] = s1;
      c2[j] = s2;
      c3[j] = s3;
    }
  }
  // Row tail (< 4 leftover rows): single-row tiles.
  for (; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      float32x4_t acc = vld1q_f32(c_row + j);
      for (size_t p = 0; p < k; ++p) {
        acc = vfmaq_f32(acc, vld1q_f32(b + p * n + j), vdupq_n_f32(a_row[p]));
      }
      vst1q_f32(c_row + j, acc);
    }
    for (; j < n; ++j) {
      float s = c_row[j];
      for (size_t p = 0; p < k; ++p) {
        s = std::fmaf(a_row[p], b[p * n + j], s);
      }
      c_row[j] = s;
    }
  }
}

void NeonAdd(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void NeonMul(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void NeonRelu(const float* in, float* out, size_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t x = vld1q_f32(in + i);
    vst1q_f32(out + i, vbslq_f32(vcgtq_f32(x, zero), x, zero));
  }
  for (; i < n; ++i) {
    const float x = in[i];
    out[i] = (x > 0.0f) ? x : 0.0f;
  }
}

}  // namespace

const F32Kernels& NeonKernels() {
  static const F32Kernels kTable = {
      .name = "neon",
      .matmul = NeonMatMul,
      .add = NeonAdd,
      .mul = NeonMul,
      .relu = NeonRelu,
  };
  return kTable;
}

}  // namespace tasfar::simd

#endif  // __aarch64__
