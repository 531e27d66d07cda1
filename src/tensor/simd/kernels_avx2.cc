// AVX2+FMA float32 backend. This is the only translation unit in the tree
// built with -mavx2 -mfma (see src/tensor/CMakeLists.txt), and together
// with kernels_neon.cc the only place raw intrinsics are allowed — the
// `simd-discipline` analyzer rule rejects them anywhere else. Every kernel
// reproduces the scalar reference bit-for-bit (contract in kernels.h):
// matmul accumulates each output element over ascending p with one fused
// multiply-add per step, and relu/add/mul are single correctly-rounded
// IEEE ops per element in both backends.
#if defined(TASFAR_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "tensor/simd/kernels.h"

namespace tasfar::simd {
namespace {

// 4 rows × 16 columns register tile: eight ymm accumulators live across
// the whole p loop. The four rows are independent dependency chains, so
// the tile stays throughput-bound on the FMA units even for the narrow n
// (24, 48) of the MC-dropout model — a single-row tile would serialize on
// the 4-cycle fmadd latency. Accumulation per output element is still one
// fused multiply-add per ascending p, so results match the scalar
// reference bit for bit (kernels.h).
void Avx2MatMul(const float* a, const float* b, float* c, size_t m, size_t k,
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
    for (; j + 16 <= n; j += 16) {
      __m256 acc00 = _mm256_loadu_ps(c0 + j);
      __m256 acc01 = _mm256_loadu_ps(c0 + j + 8);
      __m256 acc10 = _mm256_loadu_ps(c1 + j);
      __m256 acc11 = _mm256_loadu_ps(c1 + j + 8);
      __m256 acc20 = _mm256_loadu_ps(c2 + j);
      __m256 acc21 = _mm256_loadu_ps(c2 + j + 8);
      __m256 acc30 = _mm256_loadu_ps(c3 + j);
      __m256 acc31 = _mm256_loadu_ps(c3 + j + 8);
      for (size_t p = 0; p < k; ++p) {
        const float* b_row = b + p * n + j;
        const __m256 vb0 = _mm256_loadu_ps(b_row);
        const __m256 vb1 = _mm256_loadu_ps(b_row + 8);
        const __m256 va0 = _mm256_set1_ps(a0[p]);
        acc00 = _mm256_fmadd_ps(va0, vb0, acc00);
        acc01 = _mm256_fmadd_ps(va0, vb1, acc01);
        const __m256 va1 = _mm256_set1_ps(a1[p]);
        acc10 = _mm256_fmadd_ps(va1, vb0, acc10);
        acc11 = _mm256_fmadd_ps(va1, vb1, acc11);
        const __m256 va2 = _mm256_set1_ps(a2[p]);
        acc20 = _mm256_fmadd_ps(va2, vb0, acc20);
        acc21 = _mm256_fmadd_ps(va2, vb1, acc21);
        const __m256 va3 = _mm256_set1_ps(a3[p]);
        acc30 = _mm256_fmadd_ps(va3, vb0, acc30);
        acc31 = _mm256_fmadd_ps(va3, vb1, acc31);
      }
      _mm256_storeu_ps(c0 + j, acc00);
      _mm256_storeu_ps(c0 + j + 8, acc01);
      _mm256_storeu_ps(c1 + j, acc10);
      _mm256_storeu_ps(c1 + j + 8, acc11);
      _mm256_storeu_ps(c2 + j, acc20);
      _mm256_storeu_ps(c2 + j + 8, acc21);
      _mm256_storeu_ps(c3 + j, acc30);
      _mm256_storeu_ps(c3 + j + 8, acc31);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc0 = _mm256_loadu_ps(c0 + j);
      __m256 acc1 = _mm256_loadu_ps(c1 + j);
      __m256 acc2 = _mm256_loadu_ps(c2 + j);
      __m256 acc3 = _mm256_loadu_ps(c3 + j);
      for (size_t p = 0; p < k; ++p) {
        const __m256 vb = _mm256_loadu_ps(b + p * n + j);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[p]), vb, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[p]), vb, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[p]), vb, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[p]), vb, acc3);
      }
      _mm256_storeu_ps(c0 + j, acc0);
      _mm256_storeu_ps(c1 + j, acc1);
      _mm256_storeu_ps(c2 + j, acc2);
      _mm256_storeu_ps(c3 + j, acc3);
    }
    // Column tail: four independent scalar chains, one fmaf per ascending
    // p (this TU is built with -mfma, so std::fmaf is the same vfmadd
    // rounding as the lanes above).
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
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(c_row + j);
      for (size_t p = 0; p < k; ++p) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(a_row[p]),
                              _mm256_loadu_ps(b + p * n + j), acc);
      }
      _mm256_storeu_ps(c_row + j, acc);
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

void Avx2Add(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     _mm256_add_ps(_mm256_loadu_ps(a + i),
                                   _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void Avx2Mul(const float* a, const float* b, float* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                   _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void Avx2Relu(const float* in, float* out, size_t n) {
  // maxps(x, +0) returns the second operand when x is NaN and +0 for
  // -0 — exactly the `x > 0.0f ? x : 0.0f` definition in kernels.h.
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(in + i), zero));
  }
  for (; i < n; ++i) {
    const float x = in[i];
    out[i] = (x > 0.0f) ? x : 0.0f;
  }
}

}  // namespace

const F32Kernels& Avx2Kernels() {
  static const F32Kernels kTable = {
      .name = "avx2",
      .matmul = Avx2MatMul,
      .add = Avx2Add,
      .mul = Avx2Mul,
      .relu = Avx2Relu,
  };
  return kTable;
}

}  // namespace tasfar::simd

#endif  // TASFAR_SIMD_HAVE_AVX2
