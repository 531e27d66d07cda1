// Micro-benchmarks of the neural substrate: matrix product, Conv1d/Conv2d
// forward+backward, and a full Dense training step — the costs that
// dominate every adaptation experiment.

#include <benchmark/benchmark.h>

#include "data/crowd_sim.h"
#include "data/pdr_sim.h"
#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "tensor/simd/dispatch.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tasfar {
namespace {

void BM_MatMul(benchmark::State& state) {
  Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  Tensor a = Tensor::RandomNormal({n, n}, &rng);
  Tensor b = Tensor::RandomNormal({n, n}, &rng);
  for (auto _ : state) {
    Tensor c = a.MatMul(b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

// Serial-vs-parallel MatMul: range(0) = matrix size, range(1) = thread
// count. The 1-thread rows are the serial baseline for the speedup table
// in docs/BENCHMARKING.md; results are bit-identical across rows.
void BM_MatMulThreads(benchmark::State& state) {
  const size_t prev_threads = GetNumThreads();
  SetNumThreads(static_cast<size_t>(state.range(1)));
  Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  Tensor a = Tensor::RandomNormal({n, n}, &rng);
  Tensor b = Tensor::RandomNormal({n, n}, &rng);
  for (auto _ : state) {
    Tensor c = a.MatMul(b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  SetNumThreads(prev_threads);
}
// UseRealTime: with pooled workers the main thread's CPU clock misses the
// work, so wall time is the only honest denominator.
BENCHMARK(BM_MatMulThreads)
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->UseRealTime();

// Float32 kernel path (docs/MEMORY.md §"Float32 compute mode"): identical
// shapes and thread counts to BM_MatMulThreads so the double-vs-f32 rows
// divide directly — tools/make_bench_pr9.sh gates that ratio at 256³ and
// 1 thread (the CI `bench` job's MatMul speedup, >= 4x). Includes the
// narrow→widen staging cost, so this is the speedup a pipeline actually
// sees, not a raw-kernel number.
void BM_MatMulF32Threads(benchmark::State& state) {
  const size_t prev_threads = GetNumThreads();
  SetNumThreads(static_cast<size_t>(state.range(1)));
  Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  Tensor a = Tensor::RandomNormal({n, n}, &rng);
  Tensor b = Tensor::RandomNormal({n, n}, &rng);
  Tensor c({n, n});
  for (auto _ : state) {
    simd::MatMulF32Into(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  SetNumThreads(prev_threads);
}
BENCHMARK(BM_MatMulF32Threads)
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->UseRealTime();

void BM_Conv1dForwardBackward(benchmark::State& state) {
  Rng rng(2);
  Conv1d conv(6, 16, 5, &rng, 1, 2);
  Tensor x = Tensor::RandomNormal(
      {static_cast<size_t>(state.range(0)), 6, 20}, &rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, true);
    conv.ZeroGrads();
    Tensor g = conv.Backward(Tensor::Ones(y.shape()));
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Conv1dForwardBackward)->Arg(8)->Arg(32);

void BM_Conv2dForwardBackward(benchmark::State& state) {
  Rng rng(3);
  Conv2d conv(1, 4, 5, &rng, 1, 2);
  Tensor x = Tensor::RandomNormal(
      {static_cast<size_t>(state.range(0)), 1, 24, 24}, &rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, true);
    conv.ZeroGrads();
    Tensor g = conv.Backward(Tensor::Ones(y.shape()));
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Conv2dForwardBackward)->Arg(4)->Arg(16);

void BM_PdrModelForward(benchmark::State& state) {
  Rng rng(4);
  auto model = BuildPdrModel(20, &rng);
  Tensor x = Tensor::RandomNormal({32, 6, 20}, &rng);
  for (auto _ : state) {
    Tensor y = model->Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_PdrModelForward);

void BM_CrowdModelForward(benchmark::State& state) {
  Rng rng(5);
  auto model = BuildCrowdModel(24, &rng);
  Tensor x = Tensor::RandomNormal({8, 1, 24, 24}, &rng);
  for (auto _ : state) {
    Tensor y = model->Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_CrowdModelForward);

void BM_DenseTrainStep(benchmark::State& state) {
  Rng rng(6);
  Sequential model;
  model.Emplace<Dense>(8, 48, &rng);
  model.Emplace<Dense>(48, 1, &rng);
  Tensor x = Tensor::RandomNormal({64, 8}, &rng);
  Tensor y = Tensor::RandomNormal({64, 1}, &rng);
  Adam opt(1e-3);
  for (auto _ : state) {
    Tensor pred = model.Forward(x, true);
    Tensor grad;
    loss::Mse(pred, y, &grad, nullptr);
    model.ZeroGrads();
    model.BackwardParams(grad);
    opt.Step(model.Params(), model.Grads());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DenseTrainStep);

}  // namespace
}  // namespace tasfar

BENCHMARK_MAIN();
