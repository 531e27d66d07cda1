#ifndef TASFAR_BENCH_E2E_WORKLOADS_H_
#define TASFAR_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones, the
  /// program's metrics registry and trace buffer switched on, and the
  /// spans written to `out_dir` when the run ends.
  bool trace = false;
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First few output-check failures (empty when correct).
  std::vector<std::string> check_failures;
  /// Human-readable extras for stderr: labelled errors, thread count.
  std::vector<std::string> notes;
};

/// Workload names in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload: set-up (repeated, median reported), the timed
/// phase in whole rounds until `seconds` elapse, then the output checks.
RunOutcome RunWorkload(const RunOptions& options);

}  // namespace bench

#endif  // TASFAR_BENCH_E2E_WORKLOADS_H_
