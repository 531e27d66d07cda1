// Golden float tier, kernel level: every float32 kernel must stay inside
// a documented error budget of the double-precision reference when fed
// narrowed double inputs. The budgets here are the normative constants —
// docs/MEMORY.md §"Float32 compute mode" carries the same table and the
// derivation; a change to either must update both. Each budget folds in
// the one-time input-narrowing error (|fl(x) - x| <= eps32 * |x|), which
// tests/tensor/simd_property_test.cc — operating on float inputs — does
// not have to account for.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "tensor/simd/dispatch.h"
#include "tensor/simd/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tasfar {
namespace {

using simd::DispatchableBackends;
using simd::F32Kernels;
using simd::KernelBackend;
using simd::KernelsFor;

// Unit roundoff of IEEE binary32. All budgets are multiples of this.
constexpr double kEps32 = 0x1.0p-24;

// --- Budget table (mirrors docs/MEMORY.md) ---------------------------------
// matmul:   |err| <= (2k + 8) * eps32 * sum_p |a_p * b_p|
//           (k fma roundings + 2 narrowings per product term + slack)
// add:      |err| <= 4 * eps32 * (|a| + |b|)
// mul:      |err| <= 4 * eps32 * |a * b|
// relu:     exact: relu_f32(fl(x)) == fl(relu_f64(x)) bit for bit
// ---------------------------------------------------------------------------
constexpr double kMatMulBudgetPerTerm = 2.0;  // * k, plus kMatMulBudgetSlack.
constexpr double kMatMulBudgetSlack = 8.0;
constexpr double kAddBudget = 4.0;
constexpr double kMulBudget = 4.0;

std::vector<float> Narrow(const Tensor& t) {
  std::vector<float> out(t.size());
  for (size_t i = 0; i < t.size(); ++i) out[i] = static_cast<float>(t[i]);
  return out;
}

TEST(GoldenFloatKernelTest, MatMulWithinBudgetOfDoubleReference) {
  Rng rng(401);
  const size_t m = 37, k = 53, n = 29;
  const Tensor a = Tensor::RandomNormal({m, k}, &rng);
  const Tensor b = Tensor::RandomNormal({k, n}, &rng);
  const std::vector<float> a32 = Narrow(a);
  const std::vector<float> b32 = Narrow(b);
  for (KernelBackend backend : DispatchableBackends()) {
    const F32Kernels* kernels = KernelsFor(backend);
    ASSERT_NE(kernels, nullptr);
    std::vector<float> c(m * n, 0.0f);
    kernels->matmul(a32.data(), b32.data(), c.data(), m, k, n);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        double exact = 0.0, abs_sum = 0.0;
        for (size_t p = 0; p < k; ++p) {
          const double prod = a[i * k + p] * b[p * n + j];
          exact += prod;
          abs_sum += std::fabs(prod);
        }
        const double budget =
            (kMatMulBudgetPerTerm * static_cast<double>(k) +
             kMatMulBudgetSlack) *
            kEps32 * abs_sum;
        EXPECT_NEAR(static_cast<double>(c[i * n + j]), exact, budget)
            << kernels->name << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(GoldenFloatKernelTest, AddWithinBudgetOfDoubleReference) {
  Rng rng(402);
  const Tensor a = Tensor::RandomNormal({513}, &rng);
  const Tensor b = Tensor::RandomNormal({513}, &rng);
  const std::vector<float> a32 = Narrow(a);
  const std::vector<float> b32 = Narrow(b);
  for (KernelBackend backend : DispatchableBackends()) {
    const F32Kernels* kernels = KernelsFor(backend);
    ASSERT_NE(kernels, nullptr);
    std::vector<float> out(a.size());
    kernels->add(a32.data(), b32.data(), out.data(), a.size());
    for (size_t i = 0; i < a.size(); ++i) {
      const double budget =
          kAddBudget * kEps32 * (std::fabs(a[i]) + std::fabs(b[i]));
      EXPECT_NEAR(static_cast<double>(out[i]), a[i] + b[i], budget)
          << kernels->name << " at " << i;
    }
  }
}

TEST(GoldenFloatKernelTest, MulWithinBudgetOfDoubleReference) {
  Rng rng(403);
  const Tensor a = Tensor::RandomNormal({513}, &rng);
  const Tensor b = Tensor::RandomNormal({513}, &rng);
  const std::vector<float> a32 = Narrow(a);
  const std::vector<float> b32 = Narrow(b);
  for (KernelBackend backend : DispatchableBackends()) {
    const F32Kernels* kernels = KernelsFor(backend);
    ASSERT_NE(kernels, nullptr);
    std::vector<float> out(a.size());
    kernels->mul(a32.data(), b32.data(), out.data(), a.size());
    for (size_t i = 0; i < a.size(); ++i) {
      const double budget = kMulBudget * kEps32 * std::fabs(a[i] * b[i]);
      EXPECT_NEAR(static_cast<double>(out[i]), a[i] * b[i], budget)
          << kernels->name << " at " << i;
    }
  }
}

// relu carries a zero budget: narrowing preserves sign (ties round away
// from crossing zero only for subnormals, which still keep their sign
// bit), so relu then narrow equals narrow then relu, bit for bit.
TEST(GoldenFloatKernelTest, ReluExactlyCommutesWithNarrowing) {
  Rng rng(404);
  Tensor x = Tensor::RandomNormal({515}, &rng);
  x[0] = 0.0;
  x[1] = -0.0;
  x[2] = 1e-320;   // Subnormal in double, flushes to +0 in float.
  x[3] = -1e-320;  // Flushes to -0 in float: relu must yield +0.
  const std::vector<float> x32 = Narrow(x);
  for (KernelBackend backend : DispatchableBackends()) {
    const F32Kernels* kernels = KernelsFor(backend);
    ASSERT_NE(kernels, nullptr);
    std::vector<float> out(x.size());
    kernels->relu(x32.data(), out.data(), x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      const float expected = static_cast<float>(x[i] > 0.0 ? x[i] : 0.0);
      EXPECT_EQ(out[i], expected) << kernels->name << " at " << i;
      if (out[i] == 0.0f) {
        EXPECT_FALSE(std::signbit(out[i]))
            << kernels->name << " at " << i << ": relu output is -0.0f";
      }
    }
  }
}

// Tensor-level entry point: MatMulF32Into must stay inside the kernel
// budget at every thread count — the row-sharded parallel path reorders
// nothing (each row is one shard), so thread count must not consume any
// extra budget.
TEST(GoldenFloatKernelTest, MatMulF32IntoWithinBudgetAtEveryThreadCount) {
  Rng rng(407);
  const size_t m = 96, k = 64, n = 48;  // Above the parallel cutoff.
  const Tensor a = Tensor::RandomNormal({m, k}, &rng);
  const Tensor b = Tensor::RandomNormal({k, n}, &rng);
  Tensor reference({m, n});
  MatMulInto(a, b, &reference);
  Tensor baseline({m, n});
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    Tensor out({m, n});
    simd::MatMulF32Into(a, b, &out);
    if (threads == 1) {
      baseline = out;
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
          double abs_sum = 0.0;
          for (size_t p = 0; p < k; ++p) {
            abs_sum += std::fabs(a[i * k + p] * b[p * n + j]);
          }
          const double budget =
              (kMatMulBudgetPerTerm * static_cast<double>(k) +
               kMatMulBudgetSlack) *
              kEps32 * abs_sum;
          EXPECT_NEAR(out[i * n + j], reference[i * n + j], budget)
              << "(" << i << "," << j << ")";
        }
      }
    } else {
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], baseline[i])
            << "thread count " << threads << " changed element " << i;
      }
    }
  }
  SetNumThreads(0);
}

}  // namespace
}  // namespace tasfar
