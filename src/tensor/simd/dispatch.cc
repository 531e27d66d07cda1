#include "tensor/simd/dispatch.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "tensor/simd/cpu_features.h"
#include "tensor/simd/f32_tensor.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace tasfar::simd {

namespace {

struct KernelConfig {
  std::atomic<KernelBackend> backend;
  std::atomic<ComputeMode> mode;
};

KernelBackend DefaultBackend() {
  if (CpuHasAvx2Fma() && KernelsFor(KernelBackend::kAvx2) != nullptr) {
    return KernelBackend::kAvx2;
  }
  if (CpuHasNeon() && KernelsFor(KernelBackend::kNeon) != nullptr) {
    return KernelBackend::kNeon;
  }
  return KernelBackend::kScalar;
}

/// Applies a TASFAR_KERNEL_BACKEND value to `config`: "double" selects
/// ComputeMode::kDouble and keeps the backend; a backend name selects it
/// and ComputeMode::kF32; an unknown or unavailable value aborts. It
/// stores into `config` directly because Config()'s one-time initializer
/// calls it, and SetKernelBackend would re-enter Config() there.
void ApplyBackendValue(const char* value, KernelConfig& config) {
  KernelBackend parsed = KernelBackend::kScalar;
  TASFAR_CHECK_MSG(internal::ParseBackendName(value, &parsed),
                   "unknown TASFAR_KERNEL_BACKEND value (expected "
                   "avx2|neon|scalar|double)");
  if (parsed == KernelBackend::kDouble) {
    config.mode.store(ComputeMode::kDouble, std::memory_order_relaxed);
    return;
  }
  TASFAR_CHECK_MSG(BackendAvailable(parsed),
                   "TASFAR_KERNEL_BACKEND names a backend that is not "
                   "available on this CPU/build");
  config.backend.store(parsed, std::memory_order_relaxed);
  config.mode.store(ComputeMode::kF32, std::memory_order_relaxed);
}

KernelConfig& Config() {
  // Initialized once, on first use: cpuid picks the backend, the mode
  // stays double unless TASFAR_KERNEL_BACKEND says otherwise. Tests
  // mutate it afterwards through the setters / ApplyEnvOverride. The
  // atomics make `config` non-copyable, so the one-time setup runs in a
  // separate guarded static rather than an initializer expression.
  static KernelConfig config;
  static const bool kInitialized = [] {
    config.backend.store(DefaultBackend(), std::memory_order_relaxed);
    config.mode.store(ComputeMode::kDouble, std::memory_order_relaxed);
    if (const char* env = std::getenv("TASFAR_KERNEL_BACKEND");
        env != nullptr && env[0] != '\0') {
      ApplyBackendValue(env, config);
    }
    return true;
  }();
  (void)kInitialized;
  return config;
}

/// Chaos injection mirroring MaybePoisonMatMul in tensor.cc: the f32 path
/// shares the double path's failpoint site, so the chaos tier's sweep
/// poisons whichever kernel the pipeline actually ran.
void MaybePoisonMatMulF32(Tensor* out) {
  if (TASFAR_FAILPOINT("tensor.matmul.poison") && out->size() > 0) {
    (*out)[0] = std::numeric_limits<double>::quiet_NaN();
  }
}

}  // namespace

const char* BackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
    case KernelBackend::kNeon:
      return "neon";
    case KernelBackend::kDouble:
      return "double";
  }
  return "unknown";
}

bool BackendAvailable(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
    case KernelBackend::kDouble:
      return true;
    case KernelBackend::kAvx2:
      return CpuHasAvx2Fma() && KernelsFor(KernelBackend::kAvx2) != nullptr;
    case KernelBackend::kNeon:
      return CpuHasNeon() && KernelsFor(KernelBackend::kNeon) != nullptr;
  }
  return false;
}

std::vector<KernelBackend> DispatchableBackends() {
  std::vector<KernelBackend> backends = {KernelBackend::kScalar};
  if (BackendAvailable(KernelBackend::kAvx2)) {
    backends.push_back(KernelBackend::kAvx2);
  }
  if (BackendAvailable(KernelBackend::kNeon)) {
    backends.push_back(KernelBackend::kNeon);
  }
  return backends;
}

KernelBackend SelectedBackend() {
  return Config().backend.load(std::memory_order_relaxed);
}

void SetKernelBackend(KernelBackend backend) {
  TASFAR_CHECK_MSG(backend != KernelBackend::kDouble,
                   "kDouble is a compute mode, not a kernel table; use "
                   "SetComputeMode(ComputeMode::kDouble)");
  TASFAR_CHECK_MSG(BackendAvailable(backend),
                   "requested kernel backend is not available on this "
                   "CPU/build");
  Config().backend.store(backend, std::memory_order_relaxed);
}

ComputeMode GetComputeMode() {
  return Config().mode.load(std::memory_order_relaxed);
}

void SetComputeMode(ComputeMode mode) {
  Config().mode.store(mode, std::memory_order_relaxed);
}

bool ComputeModeIsF32() { return GetComputeMode() == ComputeMode::kF32; }

const F32Kernels& Kernels() {
  const F32Kernels* table = KernelsFor(SelectedBackend());
  TASFAR_CHECK(table != nullptr);
  return *table;
}

const F32Kernels* KernelsFor(KernelBackend backend) {
  const F32Kernels* table = nullptr;
  switch (backend) {
    case KernelBackend::kScalar:
      table = &ScalarKernels();
      break;
    case KernelBackend::kAvx2:
#if defined(TASFAR_SIMD_HAVE_AVX2)
      table = &Avx2Kernels();
#endif
      break;
    case KernelBackend::kNeon:
#if defined(__aarch64__)
      table = &NeonKernels();
#endif
      break;
    case KernelBackend::kDouble:
      break;
  }
  if (table != nullptr) {
    // A backend table with a hole would dispatch through nullptr much
    // later, in a hot loop; fail loudly at lookup instead. The
    // simd-discipline analyzer rule enforces the same completeness at the
    // source level.
    TASFAR_CHECK(table->name != nullptr && table->matmul != nullptr &&
                 table->add != nullptr && table->mul != nullptr &&
                 table->relu != nullptr);
  }
  return table;
}

ScopedKernelConfig::ScopedKernelConfig()
    : saved_backend_(SelectedBackend()), saved_mode_(GetComputeMode()) {}

ScopedKernelConfig::~ScopedKernelConfig() {
  Config().backend.store(saved_backend_, std::memory_order_relaxed);
  Config().mode.store(saved_mode_, std::memory_order_relaxed);
}

void MatMulF32Raw(const float* a, const float* b, float* c, size_t m,
                  size_t k, size_t n) {
  const F32Kernels& kernels = Kernels();
  if (m < 2 || m * k * n < kParallelMinMadds) {
    kernels.matmul(a, b, c, m, k, n);
    return;
  }
  // Row sharding: each output row is written by exactly one shard, so the
  // result is byte-identical at every thread count (docs/THREADING.md).
  const size_t num_shards = GetNumThreads() * 4;
  const size_t rows_per_shard =
      std::max<size_t>(4, (m + num_shards - 1) / num_shards);
  const size_t shards = (m + rows_per_shard - 1) / rows_per_shard;
  ParallelFor(0, shards, /*grain=*/1, [&](size_t s) {
    const size_t i0 = s * rows_per_shard;
    const size_t i1 = std::min(i0 + rows_per_shard, m);
    kernels.matmul(a + i0 * k, b, c + i0 * n, i1 - i0, k, n);
  });
}

void MatMulF32Into(const Tensor& a, const Tensor& b, Tensor* out) {
  TASFAR_CHECK(out != nullptr && out != &a && out != &b);
  TASFAR_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                   "MatMul requires rank-2 operands");
  TASFAR_CHECK_MSG(a.dim(1) == b.dim(0), "MatMul inner dimensions must agree");
  const size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  TASFAR_CHECK(out->rank() == 2 && out->dim(0) == m && out->dim(1) == n);
  // Staging reused across calls per thread; safe because nothing inside
  // this function re-enters it on the same thread (ParallelFor shards run
  // the raw kernel only).
  thread_local F32Tensor a_f32, b_f32, c_f32;
  a_f32.FromTensor(a);
  b_f32.FromTensor(b);
  c_f32.ResizeZeroed(m, n);
  MatMulF32Raw(a_f32.data(), b_f32.data(), c_f32.data(), m, k, n);
  if (out->size() > 0) c_f32.WidenTo(out->data());
  MaybePoisonMatMulF32(out);
}

namespace internal {

bool ParseBackendName(const std::string& value, KernelBackend* out) {
  if (value == "scalar") {
    *out = KernelBackend::kScalar;
  } else if (value == "avx2") {
    *out = KernelBackend::kAvx2;
  } else if (value == "neon") {
    *out = KernelBackend::kNeon;
  } else if (value == "double") {
    *out = KernelBackend::kDouble;
  } else {
    return false;
  }
  return true;
}

void ApplyEnvOverride(const char* value) {
  TASFAR_CHECK(value != nullptr);
  ApplyBackendValue(value, Config());
}

}  // namespace internal

}  // namespace tasfar::simd
