// End-to-end benchmark entry point (see README.md).
//
//   tasfar_bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out <dir>]
//
// Prints notes and check failures on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and span files are written under --out.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "tasfar_bench_e2e: %s\nusage: tasfar_bench_e2e --workload "
               "<adapt_pdr|adapt_crowd|serve_predict|serve_adapt> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  return 2;
}

void PrintJson(const bench::RunOutcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const bench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  bool known = false;
  for (const std::string& name : bench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage(("unknown workload " + options.workload).c_str());

  bench::RunOutcome out;
  try {
    out = bench::RunWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tasfar_bench_e2e: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& note : out.notes) {
    std::fprintf(stderr, "[%s] %s\n", options.workload.c_str(), note.c_str());
  }
  for (const std::string& why : out.check_failures) {
    std::fprintf(stderr, "[%s] CHECK FAILED %s\n", options.workload.c_str(),
                 why.c_str());
  }
  std::fflush(stderr);
  PrintJson(out);
  return 0;
}
