#!/usr/bin/env sh
# The f32 speedup gate of the float32 SIMD kernel backend (docs/MEMORY.md
# §"Float32 compute mode"; docs/BENCHMARKING.md). Writes OUT, a JSON report
# of real_time (ns) for the double and f32 variants of the MatMul thread
# sweep and the MC-dropout Predict sweep, plus the kernel-dispatch overhead
# micros, and fails if the single-thread speedups fall below their targets
# (MatMul >= 4x, MC-dropout Predict >= 2.5x). Both variants come from the
# SAME run of each binary, so the speedups are same-machine, same-build
# ratios, not cross-run noise.
#
# Usage:
#   tools/make_bench_pr9.sh CORE_JSON NN_JSON OBS_JSON OUT
#
# where the three inputs are fresh --benchmark_format=json runs of
# bench_micro_core, bench_micro_nn, and bench_micro_obs (the CI `bench` job
# writes all four files under bench_out/). Fails if any benchmark in any
# input reported an error — benchmark errors must fail the build, not
# silently produce a partial report.
set -eu

if [ "$#" -ne 4 ]; then
  echo "usage: $0 CORE_JSON NN_JSON OBS_JSON OUT" >&2
  exit 2
fi

for f in "$1" "$2" "$3"; do
  if jq -e '[.benchmarks[] | select(.error_occurred == true)] | length > 0' \
      "$f" > /dev/null; then
    echo "benchmark errors in $f:" >&2
    jq -r '.benchmarks[] | select(.error_occurred == true) |
           "  \(.name): \(.error_message)"' "$f" >&2
    exit 1
  fi
done

jq -n \
  --slurpfile core "$1" --slurpfile nn "$2" --slurpfile obs "$3" '
  def rows($doc; $prefix): [$doc.benchmarks[] |
    select(.name | startswith($prefix)) | {name, real_time, time_unit}];
  def ns($doc; $n): [$doc.benchmarks[] | select(.name == $n) | .real_time][0];
  def speedup($doc; $double; $f32): (ns($doc; $double) / ns($doc; $f32));
  {
    matmul: {
      double: rows($nn[0]; "BM_MatMulThreads/"),
      f32: rows($nn[0]; "BM_MatMulF32Threads/"),
      speedup_128_1thread:
        speedup($nn[0]; "BM_MatMulThreads/128/1/real_time";
                        "BM_MatMulF32Threads/128/1/real_time"),
      speedup_256_1thread:
        speedup($nn[0]; "BM_MatMulThreads/256/1/real_time";
                        "BM_MatMulF32Threads/256/1/real_time")
    },
    mc_dropout: {
      double: rows($core[0]; "BM_McDropoutPredictThreads/"),
      f32: rows($core[0]; "BM_McDropoutPredictF32Threads/"),
      speedup_20_1thread:
        speedup($core[0]; "BM_McDropoutPredictThreads/20/1/real_time";
                          "BM_McDropoutPredictF32Threads/20/1/real_time")
    },
    dispatch_overhead: {
      rows: rows($obs[0]; "BM_SimdKernel"),
      lookup_ns: (ns($obs[0]; "BM_SimdKernelDispatch")
                  - ns($obs[0]; "BM_SimdKernelDirect"))
    },
    headline: {
      matmul_f32_vs_double:
        speedup($nn[0]; "BM_MatMulThreads/256/1/real_time";
                        "BM_MatMulF32Threads/256/1/real_time"),
      mc_dropout_f32_vs_double:
        speedup($core[0]; "BM_McDropoutPredictThreads/20/1/real_time";
                          "BM_McDropoutPredictF32Threads/20/1/real_time"),
      targets: {matmul_f32_vs_double: 4.0, mc_dropout_f32_vs_double: 2.5}
    }
  }' > "$4"

echo "wrote $4 (matmul x$(jq -r '.headline.matmul_f32_vs_double' "$4"), mc-dropout x$(jq -r '.headline.mc_dropout_f32_vs_double' "$4"))"

# The acceptance targets are part of the report: fail if the measured
# ratios regressed below them.
jq -e '.headline.matmul_f32_vs_double >= .headline.targets.matmul_f32_vs_double
       and .headline.mc_dropout_f32_vs_double
           >= .headline.targets.mc_dropout_f32_vs_double' "$4" > /dev/null || {
  echo "f32 speedups below acceptance targets" >&2
  exit 1
}
