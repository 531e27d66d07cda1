#ifndef TASFAR_TENSOR_SIMD_KERNELS_H_
#define TASFAR_TENSOR_SIMD_KERNELS_H_

#include <cstddef>

namespace tasfar::simd {

/// One backend's float32 kernel registry.
///
/// Every dispatchable backend (scalar reference, AVX2+FMA, NEON) fills in
/// every field — the `simd-discipline` analyzer rule cross-checks each
/// `kernels_<backend>.cc` against this struct, so a kernel added here
/// without a registration in every backend fails analyze_repo_invariants, and
/// `dispatch.cc` additionally TASFAR_CHECKs all pointers non-null before
/// publishing a table.
///
/// Numerical contract (tests/golden_float/ asserts it): for identical
/// float inputs, every backend produces bit-identical outputs to the
/// scalar reference. The kernels are designed so this is achievable:
///
///  - `matmul` accumulates each output element over the inner index p in
///    globally ascending order with one correctly-rounded fused
///    multiply-add per step (std::fmaf in the scalar reference, hardware
///    FMA lanes in the vector backends). Unlike the double kernel there
///    is NO a == 0 sparsity skip: executing fma(0, b, c) unconditionally
///    keeps per-row accumulator chains branch-free (the vector backends
///    interleave 4 rows for instruction-level parallelism) and makes
///    NaN/Inf propagation identical in every backend. Tiling and vector
///    width therefore do not change results.
///  - `relu` is defined as `x > 0.0f ? x : 0.0f` (so -0.0f and NaN both
///    map to +0.0f) because that is what the branchless vector forms
///    compute; the scalar reference matches them, not std::max.
///
/// These four are all the f32 path needs: it runs only models whose every
/// layer SupportsF32 (Dense, Relu, Dropout), i.e. the tabular MLP.
///
/// Error budgets versus the golden double path are documented per kernel
/// in docs/MEMORY.md §"Float32 compute mode" and enforced by
/// tests/golden_float/golden_float_kernel_test.cc.
struct F32Kernels {
  /// Backend name as spelled in TASFAR_KERNEL_BACKEND.
  const char* name;

  /// c += a (m×k) · b (k×n), row-major; c must hold zeros (or a partial
  /// sum being extended — the kernel only ever adds). Single-threaded;
  /// MatMulF32Raw shards rows across the pool above this.
  void (*matmul)(const float* a, const float* b, float* c, size_t m,
                 size_t k, size_t n);

  /// out[i] = a[i] + b[i]. out may alias a or b.
  void (*add)(const float* a, const float* b, float* out, size_t n);

  /// out[i] = a[i] * b[i]. out may alias a or b.
  void (*mul)(const float* a, const float* b, float* out, size_t n);

  /// out[i] = in[i] > 0.0f ? in[i] : 0.0f. out may alias in.
  void (*relu)(const float* in, float* out, size_t n);
};

/// Portable reference backend; always available, bit-exact target for the
/// vector backends.
const F32Kernels& ScalarKernels();

#if defined(TASFAR_SIMD_HAVE_AVX2)
/// AVX2+FMA backend (x86-64). Compiled only when the build enables it;
/// runtime availability is still gated on cpuid (cpu_features.h).
const F32Kernels& Avx2Kernels();
#endif

#if defined(__aarch64__)
/// NEON backend (aarch64; NEON is architecturally mandatory there).
const F32Kernels& NeonKernels();
#endif

}  // namespace tasfar::simd

#endif  // TASFAR_TENSOR_SIMD_KERNELS_H_
