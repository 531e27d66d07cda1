// Property-based checks of the float32 kernel backends
// (src/tensor/simd/): every dispatchable backend must agree with the
// scalar f32 reference BIT FOR BIT on randomized shapes — including 0×N,
// 1×1, and non-multiple-of-vector-width tails — and with the double
// reference within the budgets documented in docs/MEMORY.md §"Float32
// compute mode" (the budget assertions themselves live in
// tests/golden_float/golden_float_kernel_test.cc; here we check a
// rigorous elementwise bound to catch shape-dependent bugs).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "tensor/simd/dispatch.h"
#include "tensor/simd/kernels.h"
#include "util/rng.h"

namespace tasfar {
namespace {

using simd::DispatchableBackends;
using simd::F32Kernels;
using simd::KernelBackend;
using simd::KernelsFor;
using simd::ScalarKernels;

// memcmp of `n` floats, where comparing zero floats is equal: an empty
// vector's data() may be null, which memcmp must not be passed.
bool SameFloats(const float* a, const float* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

std::vector<float> RandomVec(size_t n, uint32_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
  return v;
}

using Shape = std::tuple<size_t, size_t, size_t>;  // m, k, n.

class SimdMatMulPropertyTest : public ::testing::TestWithParam<Shape> {};

TEST_P(SimdMatMulPropertyTest, AllBackendsBitIdenticalToScalar) {
  const auto [m, k, n] = GetParam();
  const std::vector<float> a =
      RandomVec(m * k, static_cast<uint32_t>(m * 131 + k * 17 + n));
  const std::vector<float> b =
      RandomVec(k * n, static_cast<uint32_t>(m * 7 + k * 311 + n + 1));
  std::vector<float> ref(m * n, 0.5f);  // Nonzero: matmul accumulates.
  ScalarKernels().matmul(a.data(), b.data(), ref.data(), m, k, n);
  for (KernelBackend backend : DispatchableBackends()) {
    const F32Kernels* kernels = KernelsFor(backend);
    ASSERT_NE(kernels, nullptr);
    std::vector<float> out(m * n, 0.5f);
    kernels->matmul(a.data(), b.data(), out.data(), m, k, n);
    EXPECT_TRUE(SameFloats(ref.data(), out.data(), m * n))
        << "backend " << kernels->name << " diverges from scalar at shape "
        << m << "x" << k << "x" << n;
  }
}

TEST_P(SimdMatMulPropertyTest, WithinRigorousBoundOfDoubleReference) {
  const auto [m, k, n] = GetParam();
  const std::vector<float> a =
      RandomVec(m * k, static_cast<uint32_t>(m * 13 + k * 57 + n + 3));
  const std::vector<float> b =
      RandomVec(k * n, static_cast<uint32_t>(m + k * 5 + n * 231 + 4));
  for (KernelBackend backend : DispatchableBackends()) {
    const F32Kernels* kernels = KernelsFor(backend);
    ASSERT_NE(kernels, nullptr);
    std::vector<float> out(m * n, 0.0f);
    kernels->matmul(a.data(), b.data(), out.data(), m, k, n);
    // Forward error of a length-k fma dot product: at most one rounding
    // per step, so |err| <= k * eps32 * sum(|a_p * b_p|); the +4 absorbs
    // the final conversions. Inputs here are already float, so there is
    // no input-narrowing term.
    const double eps32 = 0x1.0p-24;
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        double exact = 0.0, abs_sum = 0.0;
        for (size_t p = 0; p < k; ++p) {
          const double prod = static_cast<double>(a[i * k + p]) *
                              static_cast<double>(b[p * n + j]);
          exact += prod;
          abs_sum += std::fabs(prod);
        }
        const double bound = static_cast<double>(k + 4) * eps32 * abs_sum;
        EXPECT_NEAR(static_cast<double>(out[i * n + j]), exact, bound)
            << "backend " << kernels->name << " at (" << i << "," << j
            << ") of " << m << "x" << k << "x" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimdMatMulPropertyTest,
    ::testing::Values(
        // Degenerate: empty result / empty inner dimension (c untouched).
        Shape{0, 5, 7}, Shape{5, 7, 0}, Shape{4, 0, 6}, Shape{1, 1, 1},
        // Tails: every n mod 16 class around the AVX2 tile widths, odd
        // rows around the 4-row tile, and awkward primes.
        Shape{1, 3, 2}, Shape{2, 8, 8}, Shape{3, 5, 9}, Shape{4, 6, 15},
        Shape{5, 9, 16}, Shape{6, 4, 17}, Shape{7, 11, 23}, Shape{8, 16, 24},
        Shape{9, 13, 31}, Shape{11, 7, 33}, Shape{13, 21, 48},
        Shape{16, 33, 40}, Shape{33, 17, 65}, Shape{64, 8, 48},
        Shape{64, 48, 24}, Shape{64, 24, 1}));

class SimdElementwisePropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SimdElementwisePropertyTest, AllBackendsBitIdenticalToScalar) {
  const size_t n = GetParam();
  const std::vector<float> a = RandomVec(n, static_cast<uint32_t>(n * 3 + 1));
  const std::vector<float> b = RandomVec(n, static_cast<uint32_t>(n * 5 + 2));
  const F32Kernels& ref = ScalarKernels();
  std::vector<float> r_add(n), r_mul(n), r_relu(n);
  ref.add(a.data(), b.data(), r_add.data(), n);
  ref.mul(a.data(), b.data(), r_mul.data(), n);
  ref.relu(a.data(), r_relu.data(), n);
  for (KernelBackend backend : DispatchableBackends()) {
    const F32Kernels* kernels = KernelsFor(backend);
    ASSERT_NE(kernels, nullptr);
    std::vector<float> out(n);
    kernels->add(a.data(), b.data(), out.data(), n);
    EXPECT_TRUE(SameFloats(r_add.data(), out.data(), n))
        << "add/" << kernels->name;
    kernels->mul(a.data(), b.data(), out.data(), n);
    EXPECT_TRUE(SameFloats(r_mul.data(), out.data(), n))
        << "mul/" << kernels->name;
    kernels->relu(a.data(), out.data(), n);
    EXPECT_TRUE(SameFloats(r_relu.data(), out.data(), n))
        << "relu/" << kernels->name;
  }
}

TEST_P(SimdElementwisePropertyTest, AliasedOutputAllowed) {
  const size_t n = GetParam();
  const std::vector<float> a = RandomVec(n, static_cast<uint32_t>(n + 11));
  const std::vector<float> b = RandomVec(n, static_cast<uint32_t>(n + 12));
  for (KernelBackend backend : DispatchableBackends()) {
    const F32Kernels* kernels = KernelsFor(backend);
    ASSERT_NE(kernels, nullptr);
    std::vector<float> expect(n), inplace = a;
    kernels->add(a.data(), b.data(), expect.data(), n);
    kernels->add(inplace.data(), b.data(), inplace.data(), n);
    EXPECT_TRUE(SameFloats(expect.data(), inplace.data(), n))
        << "aliased add/" << kernels->name;
    inplace = a;
    kernels->relu(a.data(), expect.data(), n);
    kernels->relu(inplace.data(), inplace.data(), n);
    EXPECT_TRUE(SameFloats(expect.data(), inplace.data(), n))
        << "aliased relu/" << kernels->name;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimdElementwisePropertyTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                                           17, 31, 32, 33, 63, 64, 65, 100,
                                           1000));

// Edge semantics pinned by kernels.h: relu maps both -0.0f and NaN to
// +0.0f in every backend (the branchless vector forms decide this; the
// scalar reference matches them).
TEST(SimdReluEdgeTest, NegativeZeroAndNanMapToPositiveZero) {
  const float in[4] = {-0.0f, std::nanf(""), -1.5f, 2.5f};
  for (KernelBackend backend : DispatchableBackends()) {
    const F32Kernels* kernels = KernelsFor(backend);
    ASSERT_NE(kernels, nullptr);
    float out[4];
    kernels->relu(in, out, 4);
    EXPECT_EQ(out[0], 0.0f) << kernels->name;
    EXPECT_FALSE(std::signbit(out[0]))
        << kernels->name << ": -0.0f must map to +0.0f";
    EXPECT_EQ(out[1], 0.0f) << kernels->name << ": NaN must map to +0";
    EXPECT_EQ(out[2], 0.0f) << kernels->name;
    EXPECT_EQ(out[3], 2.5f) << kernels->name;
  }
}

// k = 0 leaves c exactly as it was (the kernels only ever accumulate).
TEST(SimdMatMulEdgeTest, EmptyInnerDimensionLeavesCUntouched) {
  for (KernelBackend backend : DispatchableBackends()) {
    const F32Kernels* kernels = KernelsFor(backend);
    ASSERT_NE(kernels, nullptr);
    std::vector<float> c(6, 41.0f);
    std::vector<float> empty(1, 0.0f);  // Valid pointer, zero extent.
    kernels->matmul(empty.data(), empty.data(), c.data(), 2, 0, 3);
    for (float v : c) EXPECT_EQ(v, 41.0f) << kernels->name;
  }
}

}  // namespace
}  // namespace tasfar
