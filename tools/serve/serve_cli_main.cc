// tasfar_serve_cli: command-line client for tasfar_served
// (docs/SERVING.md §Quickstart, docs/PROTOCOL.md for the wire format).
//
//   tasfar_serve_cli --port P <command> [args]
//
// Commands:
//   ping
//   create <user> [seed] [budget_mb] [backend]
//       input_dim fixed to the demo's 8; budget_mb 0 (default) takes the
//       server's budget; backend is mc_dropout (default), ensemble, or
//       laplace (docs/UNCERTAINTY.md)
//   submit <user> <demo_rows>            deterministic demo target rows
//   adapt <user> [adapt_seed]
//   wait <user> [timeout_ms]             poll until adapted or degraded
//   query <user>
//   predict <user> <demo_rows>
//   save <user> <file>
//   restore <user> <file>
//   close <user>
//   inspect <user> [dump_file]           session telemetry + flight dump
//   metrics
//
// Every number must be a whole unsigned decimal within its range
// (docs/SERVING.md); anything else exits with code 2 before the client
// connects.

#include <poll.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "data/housing_sim.h"
#include "serve/client.h"
#include "serve/demo.h"
#include "util/parse.h"

namespace {

using tasfar::Status;
using tasfar::Tensor;
using tasfar::serve::Client;
using tasfar::serve::ClientSessionInfo;
using tasfar::serve::SessionState;
using tasfar::serve::SessionStateName;

constexpr char kProgram[] = "tasfar_serve_cli";

// Ranges of the numeric arguments (docs/SERVING.md). A budget of 0 takes
// the server's default; the cap, a TiB, is the daemon's own budget cap and
// keeps the MiB → bytes product from wrapping. A million demo rows of 8
// doubles (64 MB) still fit one 64 MiB frame. A wait is at most an hour.
constexpr uint64_t kMaxBudgetMb = 1u << 20;
constexpr uint64_t kMaxDemoRows = 1000000;
constexpr uint64_t kMaxWaitMs = 3600u * 1000u;

int Die(const Status& st) {
  std::fprintf(stderr, "tasfar_serve_cli: %s\n", st.ToString().c_str());
  return 1;
}

void PrintInfo(const ClientSessionInfo& info) {
  std::printf("state=%s backend=%s pending_rows=%llu adapt_runs=%llu "
              "serving_adapted=%d used_bytes=%llu budget_bytes=%llu\n",
              SessionStateName(info.state), info.backend.c_str(),
              static_cast<unsigned long long>(info.pending_rows),
              static_cast<unsigned long long>(info.adapt_runs),
              info.serving_adapted ? 1 : 0,
              static_cast<unsigned long long>(info.used_bytes),
              static_cast<unsigned long long>(info.budget_bytes));
  if (!info.degraded_reason.empty()) {
    std::printf("degraded_reason=%s\n", info.degraded_reason.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using tasfar::ParseOrExit;
  if (argc < 4 || std::strcmp(argv[1], "--port") != 0) {
    std::fprintf(stderr,
                 "usage: tasfar_serve_cli --port P <command> [args]\n");
    return 2;
  }
  const auto port = static_cast<uint16_t>(
      ParseOrExit(kProgram, "--port", argv[2], 1, 65535));
  int argi = 3;
  const std::string cmd = argv[argi++];
  auto arg = [&](int k) -> std::string {
    return argi + k < argc ? argv[argi + k] : "";
  };

  // Every number is checked before the client connects: argument k as a
  // number in [lo, hi], or `fallback` when it is absent.
  auto number = [&](int k, const char* name, uint64_t fallback, uint64_t lo,
                    uint64_t hi) {
    return arg(k).empty() ? fallback
                          : ParseOrExit(kProgram, name, arg(k), lo, hi);
  };
  constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();
  uint64_t seed = 0;
  uint64_t budget_mb = 0;
  uint64_t demo_rows = 0;
  uint64_t timeout_ms = 0;
  tasfar::UncertaintyBackend backend = tasfar::UncertaintyBackend::kMcDropout;
  if (cmd == "create") {
    seed = number(1, "seed", 0x5eed, 0, kU64Max);
    budget_mb = number(2, "budget_mb", 0, 0, kMaxBudgetMb);
    if (!arg(3).empty() &&
        !tasfar::ParseUncertaintyBackendName(arg(3), &backend)) {
      std::fprintf(stderr,
                   "tasfar_serve_cli: unknown backend '%s' (want "
                   "mc_dropout, ensemble, or laplace)\n",
                   arg(3).c_str());
      return 2;
    }
  } else if (cmd == "submit" || cmd == "predict") {
    demo_rows = number(1, "demo_rows", 64, 1, kMaxDemoRows);
  } else if (cmd == "adapt") {
    seed = number(1, "adapt_seed", 7, 0, kU64Max);
  } else if (cmd == "wait") {
    timeout_ms = number(1, "timeout_ms", 120000, 0, kMaxWaitMs);
  }

  Client client;
  Status st = client.Connect(port);
  if (!st.ok()) return Die(st);

  if (cmd == "ping") {
    st = client.Ping();
    if (!st.ok()) return Die(st);
    std::printf("pong\n");
    return 0;
  }
  if (cmd == "metrics") {
    auto text = client.GetMetrics();
    if (!text.ok()) return Die(text.status());
    std::fputs(text.value().c_str(), stdout);
    return 0;
  }

  const std::string user = arg(0);
  if (user.empty()) {
    std::fprintf(stderr, "tasfar_serve_cli: %s needs a user id\n",
                 cmd.c_str());
    return 2;
  }

  if (cmd == "create") {
    st = client.CreateSession(user, seed, tasfar::kNumHousingFeatures,
                              budget_mb * 1024 * 1024, backend);
    if (!st.ok()) return Die(st);
    std::printf("created session '%s' (backend %s)\n", user.c_str(),
                tasfar::UncertaintyBackendName(backend));
    return 0;
  }
  if (cmd == "submit" || cmd == "predict") {
    const Tensor rows =
        tasfar::serve::BuildDemoTargetRows(static_cast<size_t>(demo_rows));
    if (cmd == "submit") {
      st = client.SubmitTargetData(user, static_cast<uint32_t>(rows.dim(0)),
                                   static_cast<uint32_t>(rows.dim(1)),
                                   rows.data());
      if (!st.ok()) return Die(st);
      std::printf("submitted %zu rows\n", rows.dim(0));
      return 0;
    }
    auto pred = client.Predict(user, static_cast<uint32_t>(rows.dim(0)),
                               static_cast<uint32_t>(rows.dim(1)),
                               rows.data());
    if (!pred.ok()) return Die(pred.status());
    std::printf("from_adapted=%d\n", pred.value().from_adapted ? 1 : 0);
    for (size_t i = 0; i < pred.value().predictions.size(); ++i) {
      const auto& p = pred.value().predictions[i];
      std::printf("row %zu:", i);
      for (size_t d = 0; d < p.mean.size(); ++d) {
        std::printf(" mean=%.17g std=%.17g", p.mean[d], p.std[d]);
      }
      std::printf("\n");
    }
    return 0;
  }
  if (cmd == "adapt") {
    st = client.Adapt(user, seed);
    if (!st.ok()) return Die(st);
    std::printf("adapt job queued\n");
    return 0;
  }
  if (cmd == "wait") {
    uint64_t waited = 0;
    for (;;) {
      auto info = client.QuerySession(user);
      if (!info.ok()) return Die(info.status());
      const SessionState s = info.value().state;
      if (s == SessionState::kAdapted || s == SessionState::kDegraded) {
        PrintInfo(info.value());
        return 0;
      }
      if (waited >= timeout_ms) {
        std::fprintf(stderr, "tasfar_serve_cli: wait timed out in state "
                             "%s\n", SessionStateName(s));
        return 1;
      }
      ::poll(nullptr, 0, 100);
      waited += 100;
    }
  }
  if (cmd == "query") {
    auto info = client.QuerySession(user);
    if (!info.ok()) return Die(info.status());
    PrintInfo(info.value());
    return 0;
  }
  if (cmd == "save") {
    auto blob = client.SaveSession(user);
    if (!blob.ok()) return Die(blob.status());
    const std::string path = arg(1);
    if (path.empty()) return Die(Status::InvalidArgument("save needs a file"));
    std::ofstream out(path, std::ios::trunc);
    out << blob.value();
    if (!out.good()) return Die(Status::IoError("writing " + path));
    std::printf("saved session '%s' to %s (%zu bytes)\n", user.c_str(),
                path.c_str(), blob.value().size());
    return 0;
  }
  if (cmd == "restore") {
    const std::string path = arg(1);
    std::ifstream in(path);
    if (!in.is_open()) return Die(Status::NotFound("cannot open " + path));
    std::ostringstream buf;
    buf << in.rdbuf();
    st = client.RestoreSession(user, buf.str());
    if (!st.ok()) return Die(st);
    std::printf("restored session '%s' from %s\n", user.c_str(),
                path.c_str());
    return 0;
  }
  if (cmd == "close") {
    st = client.CloseSession(user);
    if (!st.ok()) return Die(st);
    std::printf("closed session '%s'\n", user.c_str());
    return 0;
  }
  if (cmd == "inspect") {
    auto telemetry = client.InspectSession(user);
    if (!telemetry.ok()) return Die(telemetry.status());
    const auto& t = telemetry.value();
    std::printf("state=%s predict_count=%llu predict_p50_ms=%.3f "
                "predict_p99_ms=%.3f\n",
                SessionStateName(t.state),
                static_cast<unsigned long long>(t.predict_count),
                t.predict_p50_ms, t.predict_p99_ms);
    for (const auto& s : t.adapt_samples) {
      std::printf("adapt run=%llu outcome=%s uncertain_ratio=%.17g "
                  "mean_credibility=%.17g density_total_mass=%.17g "
                  "density_mean_sigma=%.17g final_loss=%.17g epochs=%llu\n",
                  static_cast<unsigned long long>(s.adapt_run),
                  tasfar::serve::AdaptOutcomeName(
                      static_cast<tasfar::serve::AdaptOutcome>(s.outcome)),
                  s.uncertain_ratio, s.mean_credibility,
                  s.density_total_mass, s.density_mean_sigma, s.final_loss,
                  static_cast<unsigned long long>(s.epochs));
    }
    for (const auto& ev : t.flight_events) {
      std::printf("flight [%llu.%06llu] serve.flight.%s trace=%llu %s\n",
                  static_cast<unsigned long long>(ev.t_us / 1000000),
                  static_cast<unsigned long long>(ev.t_us % 1000000),
                  ev.code_name.c_str(),
                  static_cast<unsigned long long>(ev.trace_id),
                  ev.detail.c_str());
    }
    const std::string path = arg(1);
    if (!path.empty()) {
      std::ofstream out(path, std::ios::trunc);
      out << t.last_dump;
      if (!out.good()) return Die(Status::IoError("writing " + path));
      std::printf("wrote flight-recorder dump (%zu bytes) to %s\n",
                  t.last_dump.size(), path.c_str());
    } else if (!t.last_dump.empty()) {
      std::fputs(t.last_dump.c_str(), stdout);
    }
    return 0;
  }
  std::fprintf(stderr, "tasfar_serve_cli: unknown command '%s'\n",
               cmd.c_str());
  return 2;
}
