// tasfar_top: live per-tenant view of a running tasfar_served
// (docs/SERVING.md §Diagnosing a degraded session).
//
//   tasfar_top --port P [--interval-ms 1000] [--once]
//
// Polls the daemon's plain-HTTP endpoints — `/sessions` for the
// per-session table and `/metrics` for a process-wide header line — and
// renders them as a refreshing terminal table. `--once` prints a single
// snapshot and exits (CI, scripts). `--port` must be a whole number in
// [1, 65535] and `--interval-ms` one in [1, 3600000]; anything else exits
// with code 2.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "sessions_table.h"
#include "util/parse.h"

namespace {

/// One GET round-trip against the daemon; returns the response body ("" on
/// any transport failure — the daemon may simply not be up yet).
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t w = ::send(fd, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return "";
    }
    off += static_cast<size_t>(w);
  }
  std::string response;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) return "";
  if (response.compare(0, 12, "HTTP/1.0 200") != 0) return "";
  return response.substr(body + 4);
}

/// The value of `name` in a Prometheus text body, or "0" when absent.
std::string MetricValue(const std::string& metrics, const std::string& name) {
  std::istringstream in(metrics);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size(), name) == 0 &&
        line.size() > name.size() && line[name.size()] == ' ') {
      return line.substr(name.size() + 1);
    }
  }
  return "0";
}

void Render(uint16_t port, bool clear) {
  const std::string metrics = HttpGet(port, "/metrics");
  const std::string sessions = HttpGet(port, "/sessions");
  if (clear) std::fputs("\033[H\033[2J", stdout);
  if (metrics.empty() && sessions.empty()) {
    std::printf("tasfar_top: no response from 127.0.0.1:%u (daemon down?)\n",
                port);
    return;
  }
  std::printf(
      "tasfar_served 127.0.0.1:%u  requests=%s errors=%s "
      "adapt_completed=%s degraded=%s flight_dumps=%s\n\n",
      port,
      MetricValue(metrics, "tasfar_serve_requests_total").c_str(),
      MetricValue(metrics, "tasfar_serve_requests_errors").c_str(),
      MetricValue(metrics, "tasfar_serve_adapt_completed").c_str(),
      MetricValue(metrics, "tasfar_serve_session_degraded").c_str(),
      MetricValue(metrics, "tasfar_serve_flight_dumps").c_str());
  // The displayed columns, by their names in the /sessions header.
  const std::vector<std::string> columns = {
      "user", "state", "backend", "rows", "budget_pct", "adapt_runs",
      "last_adapt", "predict_p50_ms", "predict_p99_ms", "degraded_reason"};
  std::vector<std::vector<std::string>> rows;
  if (!tasfar::PickSessionColumns(sessions, columns, &rows)) {
    std::printf("(could not parse /sessions)\n");
    return;
  }
  std::printf("%-16s %-12s %-10s %8s %7s %10s %-9s %8s %8s %s\n", "USER",
              "STATE", "BACKEND", "ROWS", "BUDGET%", "ADAPTS", "LAST",
              "P50ms", "P99ms", "REASON");
  for (const std::vector<std::string>& c : rows) {
    std::printf("%-16s %-12s %-10s %8s %7s %10s %-9s %8s %8s %s\n",
                c[0].c_str(), c[1].c_str(), c[2].c_str(), c[3].c_str(),
                c[4].c_str(), c[5].c_str(), c[6].c_str(), c[7].c_str(),
                c[8].c_str(), c[9].c_str());
  }
  if (rows.empty()) std::printf("(no live sessions)\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr char kProgram[] = "tasfar_top";
  constexpr uint64_t kMaxIntervalMs = 3600u * 1000u;
  uint16_t port = 0;
  int interval_ms = 1000;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<uint16_t>(
          tasfar::ParseOrExit(kProgram, "--port", argv[++i], 1, 65535));
    } else if (std::strcmp(argv[i], "--interval-ms") == 0 && i + 1 < argc) {
      interval_ms = static_cast<int>(tasfar::ParseOrExit(
          kProgram, "--interval-ms", argv[++i], 1, kMaxIntervalMs));
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else {
      std::fprintf(stderr,
                   "usage: tasfar_top --port P [--interval-ms N] [--once]\n");
      return 2;
    }
  }
  if (port == 0) {
    std::fprintf(stderr,
                 "usage: tasfar_top --port P [--interval-ms N] [--once]\n");
    return 2;
  }
  if (once) {
    Render(port, /*clear=*/false);
    return 0;
  }
  for (;;) {
    Render(port, /*clear=*/true);
    ::poll(nullptr, 0, interval_ms);
  }
}
