// Serving-path benchmark (docs/BENCHMARKING.md): drives a live loopback
// Server through the real Client and reports
//   - session churn: CreateSession+CloseSession round trips per second,
//   - request latency: client-side p50/p99 of an 8-row Predict, plus the
//     server-side `tasfar.span.serve.request.ms` histogram quantiles.
// Writes bench_out/bench_serve.json and a full metrics snapshot next to
// it. A dev bench: the gated serving benchmark is bench_e2e's
// `serve_predict` workload, whose 8-row request mirrors this one's.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/demo.h"
#include "serve/server.h"
#include "util/status.h"

namespace tasfar::serve {
namespace {

constexpr size_t kChurnSessions = 200;
constexpr size_t kPredictRequests = 500;
constexpr size_t kPredictRows = 8;

double PercentileUs(std::vector<uint64_t>* samples, double p) {
  std::sort(samples->begin(), samples->end());
  const size_t idx = std::min(
      samples->size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples->size())));
  return static_cast<double>((*samples)[idx]);
}

int Run() {
  obs::SetMetricsEnabled(true);
  bench::PrintHeader("serve",
                     "Adaptation-as-a-service: session churn and request "
                     "latency of the loopback serving stack");

  std::printf("training demo source model...\n");
  const DemoBundle bundle =
      BuildDemoBundle(/*source_samples=*/800, /*target_samples=*/200,
                      /*epochs=*/6);
  const uint32_t cols = static_cast<uint32_t>(bundle.target_rows.dim(1));

  ServerConfig config;
  config.port = 0;
  config.manager.max_sessions = 256;
  Server server(bundle.model.get(), &bundle.calibration, bundle.options,
                config);
  if (Status s = server.Start(); !s.ok()) {
    std::printf("bench_serve: server start failed: %s\n",
                s.ToString().c_str());
    return 1;
  }

  Client client;
  if (Status s = client.Connect(server.port()); !s.ok()) {
    std::printf("bench_serve: connect failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // --- session churn -------------------------------------------------------
  const uint64_t churn_start = obs::MonotonicMicros();
  for (size_t i = 0; i < kChurnSessions; ++i) {
    const std::string user = "churn-" + std::to_string(i);
    if (!client.CreateSession(user, /*seed=*/i, cols).ok() ||
        !client.CloseSession(user).ok()) {
      std::printf("bench_serve: churn iteration %zu failed\n", i);
      return 1;
    }
  }
  const double churn_us =
      static_cast<double>(obs::MonotonicMicros() - churn_start);
  const double sessions_per_sec =
      static_cast<double>(kChurnSessions) / (churn_us / 1e6);

  // --- request latency -----------------------------------------------------
  if (!client.CreateSession("bench", /*seed=*/42, cols).ok()) return 1;
  std::vector<uint64_t> predict_us;
  predict_us.reserve(kPredictRequests);
  for (size_t i = 0; i < kPredictRequests; ++i) {
    const uint64_t t0 = obs::MonotonicMicros();
    Result<ClientPrediction> pred = client.Predict(
        "bench", kPredictRows, cols, bundle.target_rows.data());
    if (!pred.ok()) {
      std::printf("bench_serve: predict %zu failed: %s\n", i,
                  pred.status().ToString().c_str());
      return 1;
    }
    predict_us.push_back(obs::MonotonicMicros() - t0);
  }
  const double p50_ms = PercentileUs(&predict_us, 0.50) / 1e3;
  const double p99_ms = PercentileUs(&predict_us, 0.99) / 1e3;

  // Server-side view of the same traffic.
  obs::Histogram* span = obs::Registry::Get().GetHistogram(
      "tasfar.span.serve.request.ms", obs::Histogram::LatencyEdgesMs());
  const double server_p99_ms = span->Quantile(0.99);

  std::printf("\nsessions/sec (create+close round trip): %.1f\n",
              sessions_per_sec);
  std::printf("predict (%zu rows) client p50: %.3f ms  p99: %.3f ms\n",
              kPredictRows, p50_ms, p99_ms);
  std::printf("server span serve.request p99: %.3f ms over %llu requests\n",
              server_p99_ms,
              static_cast<unsigned long long>(span->count()));

  if (std::FILE* f = std::fopen("bench_out/bench_serve.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"sessions_per_sec\": %.3f,\n"
                 "  \"predict_rows\": %zu,\n"
                 "  \"predict_requests\": %zu,\n"
                 "  \"predict_p50_ms\": %.6f,\n"
                 "  \"predict_p99_ms\": %.6f,\n"
                 "  \"server_span_request_p99_ms\": %.6f\n"
                 "}\n",
                 sessions_per_sec, kPredictRows, kPredictRequests, p50_ms,
                 p99_ms, server_p99_ms);
    std::fclose(f);
  } else {
    std::printf("bench_serve: could not write bench_out/bench_serve.json "
                "(run from the repo root after mkdir bench_out)\n");
  }
  obs::WriteMetricsSnapshot("serve");
  return 0;
}

}  // namespace
}  // namespace tasfar::serve

int main() { return tasfar::serve::Run(); }
