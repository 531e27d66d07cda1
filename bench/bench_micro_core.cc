// Micro-benchmarks of the TASFAR core data structures: density-map
// construction, pseudo-label generation, and MC-dropout prediction. The
// paper notes the density-map build cost is O(n/g) in the number of
// confident samples n and grid size g — BM_DensityMapBuild sweeps g to
// make that visible.

#include <benchmark/benchmark.h>

#include "core/label_distribution_estimator.h"
#include "core/pseudo_label_generator.h"
#include "data/housing_sim.h"
#include "nn/sequential.h"
#include "tensor/buffer.h"
#include "tensor/simd/dispatch.h"
#include "uncertainty/ensemble.h"
#include "uncertainty/mc_dropout.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tasfar {
namespace {

std::vector<McPrediction> MakePredictions(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<McPrediction> preds(n);
  for (auto& p : preds) {
    p.mean = {rng.Normal(1.0, 0.5)};
    p.std = {rng.Uniform(0.05, 0.3)};
  }
  return preds;
}

QsModel FlatQs(double sigma) {
  QsModel qs;
  qs.line.intercept = sigma;
  return qs;
}

void BM_DensityMapBuild(benchmark::State& state) {
  const size_t n = 1000;
  const double cell = 1.0 / static_cast<double>(state.range(0));
  auto preds = MakePredictions(n, 1);
  LabelDistributionEstimator est({FlatQs(0.2)}, ErrorModelKind::kGaussian);
  std::vector<GridSpec> axes{GridSpec::FromRange(-2.0, 4.0, cell)};
  for (auto _ : state) {
    DensityMap map = est.Estimate(preds, axes);
    benchmark::DoNotOptimize(map.TotalMass());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DensityMapBuild)->Arg(10)->Arg(40)->Arg(160)->Arg(640);

void BM_DensityMapBuild2d(benchmark::State& state) {
  Rng rng(2);
  const size_t n = 500;
  std::vector<McPrediction> preds(n);
  for (auto& p : preds) {
    p.mean = {rng.Normal(0.0, 0.5), rng.Normal(0.0, 0.5)};
    p.std = {0.1, 0.1};
  }
  LabelDistributionEstimator est({FlatQs(0.2), FlatQs(0.2)},
                                 ErrorModelKind::kGaussian);
  const size_t cells = static_cast<size_t>(state.range(0));
  std::vector<GridSpec> axes{GridSpec::FromCellCount(-2.0, 2.0, cells),
                             GridSpec::FromCellCount(-2.0, 2.0, cells)};
  for (auto _ : state) {
    DensityMap map = est.Estimate(preds, axes);
    benchmark::DoNotOptimize(map.TotalMass());
  }
}
BENCHMARK(BM_DensityMapBuild2d)->Arg(20)->Arg(40)->Arg(80);

void BM_PseudoLabelGenerate(benchmark::State& state) {
  auto confident = MakePredictions(1000, 3);
  auto uncertain = MakePredictions(static_cast<size_t>(state.range(0)), 4);
  LabelDistributionEstimator est({FlatQs(0.2)}, ErrorModelKind::kGaussian);
  std::vector<GridSpec> axes = est.AutoAxes(confident, 0.02);
  DensityMap map = est.Estimate(confident, axes);
  PseudoLabelGenerator gen(&map, &est, /*tau=*/0.2);
  for (auto _ : state) {
    auto labels = gen.GenerateAll(uncertain);
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(state.iterations() * uncertain.size());
}
BENCHMARK(BM_PseudoLabelGenerate)->Arg(64)->Arg(256)->Arg(1024);

void BM_McDropoutPredict(benchmark::State& state) {
  Rng rng(5);
  auto model = BuildTabularModel(8, &rng);
  Tensor inputs = Tensor::RandomNormal({128, 8}, &rng);
  McDropoutPredictor predictor(model.get(),
                               static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto preds = predictor.Predict(inputs);
    benchmark::DoNotOptimize(preds.data());
  }
  state.SetItemsProcessed(state.iterations() * 128 * state.range(0));
}
BENCHMARK(BM_McDropoutPredict)->Arg(5)->Arg(20);

// Serial-vs-parallel MC dropout (the pipeline's hot path): range(0) =
// stochastic passes, range(1) = thread count. Predictions are
// byte-identical across rows (docs/THREADING.md); the 1-thread rows are
// the serial baseline of the speedup table in docs/BENCHMARKING.md.
void BM_McDropoutPredictThreads(benchmark::State& state) {
  const size_t prev_threads = GetNumThreads();
  SetNumThreads(static_cast<size_t>(state.range(1)));
  Rng rng(5);
  auto model = BuildTabularModel(8, &rng);
  Tensor inputs = Tensor::RandomNormal({512, 8}, &rng);
  McDropoutPredictor predictor(model.get(),
                               static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto preds = predictor.Predict(inputs);
    benchmark::DoNotOptimize(preds.data());
  }
  state.SetItemsProcessed(state.iterations() * 512 * state.range(0));
  SetNumThreads(prev_threads);
}
// UseRealTime: with pooled workers the main thread's CPU clock misses the
// work, so wall time is the only honest denominator.
BENCHMARK(BM_McDropoutPredictThreads)
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({20, 8})
    ->UseRealTime();

// Same fixture on the float32 forward path (docs/MEMORY.md §"Float32
// compute mode"): identical model, inputs, and RNG streams — the only
// change is ComputeMode::kF32 routing the stochastic passes through
// BatchedForwardF32. Divides row-for-row against
// BM_McDropoutPredictThreads; tools/make_bench_pr9.sh gates the 1-thread
// ratio (the CI `bench` job's MC-dropout speedup, >= 2.5x).
void BM_McDropoutPredictF32Threads(benchmark::State& state) {
  const size_t prev_threads = GetNumThreads();
  SetNumThreads(static_cast<size_t>(state.range(1)));
  simd::ScopedKernelConfig guard;
  simd::SetComputeMode(simd::ComputeMode::kF32);
  Rng rng(5);
  auto model = BuildTabularModel(8, &rng);
  Tensor inputs = Tensor::RandomNormal({512, 8}, &rng);
  McDropoutPredictor predictor(model.get(),
                               static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto preds = predictor.Predict(inputs);
    benchmark::DoNotOptimize(preds.data());
  }
  state.SetItemsProcessed(state.iterations() * 512 * state.range(0));
  SetNumThreads(prev_threads);
}
BENCHMARK(BM_McDropoutPredictF32Threads)
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({20, 8})
    ->UseRealTime();

// Steady-state allocation discipline of the MC-dropout hot path: pass s
// runs on a replica and Workspace lane fixed by s, and the trunk's run r
// of slices on a Workspace fixed by r (docs/MEMORY.md), so once the
// warm-up calls have populated them, further Predict calls must not
// allocate a single tensor buffer at any thread count. The bench reports allocations
// and workspace hits per iteration and fails outright if any measured
// iteration allocated. A dev benchmark: the ctest twin
// McDropoutTest.SteadyStatePredictAllocatesNothing is the gate.
void BM_McDropoutAllocs(benchmark::State& state) {
  Rng rng(5);
  auto model = BuildTabularModel(8, &rng);
  Tensor inputs = Tensor::RandomNormal({128, 8}, &rng);
  McDropoutPredictor predictor(model.get(), /*num_samples=*/20);
  for (int warm = 0; warm < 3; ++warm) {
    auto preds = predictor.Predict(inputs);
    benchmark::DoNotOptimize(preds.data());
  }
  const TensorAllocStats before = GetTensorAllocStats();
  for (auto _ : state) {
    auto preds = predictor.Predict(inputs);
    benchmark::DoNotOptimize(preds.data());
  }
  const TensorAllocStats after = GetTensorAllocStats();
  const double iters = static_cast<double>(state.iterations());
  const uint64_t allocs = after.alloc_count - before.alloc_count;
  state.counters["tensor_allocs_per_iter"] =
      static_cast<double>(allocs) / iters;
  state.counters["workspace_reuses_per_iter"] =
      static_cast<double>(after.workspace_reuses - before.workspace_reuses) /
      iters;
  if (allocs != 0) {
    state.SkipWithError("steady-state Predict allocated tensor buffers");
  }
  state.SetItemsProcessed(state.iterations() * 128 * 20);
}
BENCHMARK(BM_McDropoutAllocs);

// Deep-ensemble twin of BM_McDropoutPredictThreads: range(0) = ensemble
// members, range(1) = thread count. Predict fans the member forward
// passes across ParallelFor with one pinned dropout stream per member
// (docs/UNCERTAINTY.md), so rows are byte-identical across thread counts;
// the 1-thread rows are the serial baseline (docs/BENCHMARKING.md §Serial
// vs parallel). A dev benchmark: no CI job gates it.
void BM_EnsemblePredictThreads(benchmark::State& state) {
  const size_t prev_threads = GetNumThreads();
  SetNumThreads(static_cast<size_t>(state.range(1)));
  Rng rng(5);
  auto model = BuildTabularModel(8, &rng);
  Tensor inputs = Tensor::RandomNormal({512, 8}, &rng);
  DeepEnsemble ensemble = DeepEnsemble::FromSource(
      model.get(), static_cast<size_t>(state.range(0)), /*seed=*/0x5eed);
  for (auto _ : state) {
    auto preds = ensemble.Predict(inputs);
    benchmark::DoNotOptimize(preds.data());
  }
  state.SetItemsProcessed(state.iterations() * 512 * state.range(0));
  SetNumThreads(prev_threads);
}
BENCHMARK(BM_EnsemblePredictThreads)
    ->Args({5, 1})
    ->Args({5, 2})
    ->Args({5, 4})
    ->Args({5, 8})
    ->UseRealTime();

// Steady-state allocation discipline of the ensemble hot path, mirroring
// BM_McDropoutAllocs: member k's forward pass runs on a workspace arena
// fixed by k, so after warm-up further Predict calls must not allocate a
// single tensor buffer. A dev benchmark: the ctest twin
// SourceEnsembleTest.SteadyStatePredictAllocatesNothing is the gate.
void BM_EnsembleAllocs(benchmark::State& state) {
  Rng rng(5);
  auto model = BuildTabularModel(8, &rng);
  Tensor inputs = Tensor::RandomNormal({128, 8}, &rng);
  DeepEnsemble ensemble =
      DeepEnsemble::FromSource(model.get(), /*num_members=*/5, /*seed=*/0x5eed);
  for (int warm = 0; warm < 3; ++warm) {
    auto preds = ensemble.Predict(inputs);
    benchmark::DoNotOptimize(preds.data());
  }
  const TensorAllocStats before = GetTensorAllocStats();
  for (auto _ : state) {
    auto preds = ensemble.Predict(inputs);
    benchmark::DoNotOptimize(preds.data());
  }
  const TensorAllocStats after = GetTensorAllocStats();
  const double iters = static_cast<double>(state.iterations());
  const uint64_t allocs = after.alloc_count - before.alloc_count;
  state.counters["tensor_allocs_per_iter"] =
      static_cast<double>(allocs) / iters;
  state.counters["workspace_reuses_per_iter"] =
      static_cast<double>(after.workspace_reuses - before.workspace_reuses) /
      iters;
  if (allocs != 0) {
    state.SkipWithError("steady-state Predict allocated tensor buffers");
  }
  state.SetItemsProcessed(state.iterations() * 128 * 5);
}
BENCHMARK(BM_EnsembleAllocs);

void BM_QsCalibration(benchmark::State& state) {
  Rng rng(6);
  std::vector<UncertaintyErrorPair> pairs(10000);
  for (auto& p : pairs) {
    p.uncertainty = rng.Uniform(0.0, 1.0);
    p.error = rng.Normal(0.0, 0.1 + p.uncertainty);
  }
  for (auto _ : state) {
    QsModel model = QsCalibrator::Fit(pairs, 40);
    benchmark::DoNotOptimize(model.line.slope);
  }
}
BENCHMARK(BM_QsCalibration);

}  // namespace
}  // namespace tasfar

BENCHMARK_MAIN();
