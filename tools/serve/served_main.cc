// tasfar_served: the long-lived TASFAR adaptation daemon (docs/SERVING.md).
//
// Serves the wire protocol of docs/PROTOCOL.md on a loopback TCP port and
// Prometheus metrics to any plain "GET " request on the same port.
//
//   tasfar_served --demo                      # built-in housing demo model
//   tasfar_served --weights w.txt --calib c.txt --input-dim 8
//
// Environment:
//   TASFAR_SERVE_PORT           listen port (0 = ephemeral; --port wins)
//   TASFAR_SERVE_MAX_SESSIONS   session cap (default 64)
//   TASFAR_SERVE_SESSION_BUDGET_MB  default per-session budget (default 64)
//   TASFAR_SERVE_WRITE_TIMEOUT_MS   per-send stall bound (default 5000)
//
// Every number, flag or variable, must be a whole unsigned decimal within
// its range (docs/SERVING.md); anything else exits with code 2 before the
// model loads or trains.

#include <poll.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "core/calibration_io.h"
#include "data/housing_sim.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/demo.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/parse.h"
#include "util/rng.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

constexpr char kProgram[] = "tasfar_served";

// Environment variable `var` through ParseOrExit; unset or empty gives
// `fallback`.
uint64_t EnvOr(const char* var, uint64_t fallback, uint64_t lo,
               uint64_t hi) {
  const char* v = std::getenv(var);
  if (v == nullptr || v[0] == '\0') return fallback;
  return tasfar::ParseOrExit(kProgram, var, v, lo, hi);
}

// A row of more features than this could never fit one Submit or Predict
// frame (docs/PROTOCOL.md).
constexpr uint64_t kMaxInputDim =
    tasfar::serve::kMaxPayloadBytes / sizeof(double);
// Sanity caps: a million tenants, a TiB per session (so the MiB → bytes
// product cannot wrap), and an hour-long send stall.
constexpr uint64_t kMaxSessions = 1u << 20;
constexpr uint64_t kMaxSessionBudgetMb = 1u << 20;
constexpr uint64_t kMaxWriteTimeoutMs = 3600u * 1000u;

void Usage() {
  std::fprintf(
      stderr,
      "usage: tasfar_served (--demo | --weights W --calib C --input-dim D)\n"
      "                     [--port P] [--port-file PATH] [--oneshot]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tasfar;        // NOLINT
  using namespace tasfar::serve; // NOLINT

  bool demo = false;
  bool oneshot = false;
  std::string weights_path, calib_path, port_file;
  size_t input_dim = 0;
  std::optional<uint64_t> port_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tasfar_served: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--oneshot") {
      oneshot = true;  // Exit after binding; CI smoke uses the real loop.
    } else if (arg == "--weights") {
      weights_path = next("--weights");
    } else if (arg == "--calib") {
      calib_path = next("--calib");
    } else if (arg == "--input-dim") {
      input_dim = static_cast<size_t>(ParseOrExit(
          kProgram, "--input-dim", next("--input-dim"), 1, kMaxInputDim));
    } else if (arg == "--port") {
      port_flag = ParseOrExit(kProgram, "--port", next("--port"), 0, 65535);
    } else if (arg == "--port-file") {
      port_file = next("--port-file");
    } else {
      Usage();
      return 2;
    }
  }
  if (!demo && (weights_path.empty() || calib_path.empty() ||
                input_dim == 0)) {
    Usage();
    return 2;
  }

  // --- Server configuration (checked before any model work) -----------
  ServerConfig config;
  config.port = static_cast<uint16_t>(
      port_flag.has_value() ? *port_flag
                            : EnvOr("TASFAR_SERVE_PORT", 0, 0, 65535));
  config.manager.max_sessions = static_cast<size_t>(
      EnvOr("TASFAR_SERVE_MAX_SESSIONS", 64, 1, kMaxSessions));
  config.manager.default_budget_bytes = static_cast<size_t>(
      EnvOr("TASFAR_SERVE_SESSION_BUDGET_MB", 64, 1, kMaxSessionBudgetMb) *
      1024 * 1024);
  config.write_timeout_ms = static_cast<uint32_t>(
      EnvOr("TASFAR_SERVE_WRITE_TIMEOUT_MS", 5000, 0, kMaxWriteTimeoutMs));

  obs::SetMetricsEnabled(true);

  // --- Source artifacts -------------------------------------------------
  std::unique_ptr<Sequential> model;
  SourceCalibration calibration;
  // Demo mode serves all three uncertainty backends, each against the
  // calibration fit on its own scale; file mode ships one calibration
  // file, so only options.uncertainty_backend is served (docs/SERVING.md).
  SourceCalibration ensemble_calibration;
  SourceCalibration laplace_calibration;
  TasfarOptions options;
  if (demo) {
    std::printf("tasfar_served: training the demo housing model...\n");
    std::fflush(stdout);
    // The serve test tier's bundle scale. Beyond demo-scale training the
    // source model's last-layer features fit the source manifold so
    // tightly that every covariate-shifted target row carries more
    // Laplace uncertainty than any source row — the confident set is
    // empty and the laplace backend (correctly) falls back to source
    // serving (docs/UNCERTAINTY.md §Backend caveats). At this scale all
    // three registered backends adapt.
    DemoBundle bundle = BuildDemoBundle(/*source_samples=*/800,
                                        /*target_samples=*/200, /*epochs=*/6);
    model = std::move(bundle.model);
    calibration = bundle.calibration;
    ensemble_calibration = bundle.ensemble_calibration;
    laplace_calibration = bundle.laplace_calibration;
    options = bundle.options;
    input_dim = kNumHousingFeatures;
  } else {
    // The tabular MLP architecture is the one deployable from files today;
    // other architectures embed the server API directly (docs/SERVING.md).
    Rng rng(1);
    model = BuildTabularModel(input_dim, &rng);
    Status st = LoadParams(model.get(), weights_path);
    if (!st.ok()) {
      std::fprintf(stderr, "tasfar_served: %s\n", st.ToString().c_str());
      return 1;
    }
    Result<SourceCalibration> calib = LoadCalibration(calib_path);
    if (!calib.ok()) {
      std::fprintf(stderr, "tasfar_served: %s\n",
                   calib.status().ToString().c_str());
      return 1;
    }
    calibration = calib.value();
  }

  // --- Server -----------------------------------------------------------
  Server server(model.get(), &calibration, options, config);
  if (demo) {
    server.RegisterBackendCalibration(UncertaintyBackend::kDeepEnsemble,
                                      &ensemble_calibration);
    server.RegisterBackendCalibration(UncertaintyBackend::kLastLayerLaplace,
                                      &laplace_calibration);
  }
  const Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "tasfar_served: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("tasfar_served: listening on 127.0.0.1:%u (input_dim %zu, "
              "max_sessions %zu, budget %zu MiB)\n",
              server.port(), input_dim, config.manager.max_sessions,
              config.manager.default_budget_bytes / (1024 * 1024));
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    }
  }
  if (oneshot) {
    server.Stop();
    return 0;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    ::poll(nullptr, 0, 200);  // Sleep without std::chrono.
  }
  std::printf("tasfar_served: shutting down\n");
  server.Stop();
  return 0;
}
