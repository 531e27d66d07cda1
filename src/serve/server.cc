#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace tasfar::serve {

namespace {

/// Concurrent client connections beyond which accepts are closed
/// immediately (`tasfar.serve.connections.rejected`).
constexpr size_t kMaxConnections = 64;

obs::Counter* RequestsCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.requests.total");
  return kCounter;
}

obs::Counter* RequestErrorsCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.requests.errors");
  return kCounter;
}

obs::Counter* BytesReadCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.bytes.read");
  return kCounter;
}

obs::Counter* BytesWrittenCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.bytes.written");
  return kCounter;
}

obs::Counter* AcceptedCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.connections.accepted");
  return kCounter;
}

obs::Counter* RejectedCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.connections.rejected");
  return kCounter;
}

/// Default Status → WireError mapping; OutOfRange is context-dependent and
/// handled by SendStatusError.
WireError WireErrorFor(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument: return WireError::kBadRequest;
    case StatusCode::kNotFound: return WireError::kUnknownSession;
    case StatusCode::kFailedPrecondition: return WireError::kWrongState;
    case StatusCode::kOutOfRange: return WireError::kBudgetExceeded;
    default: return WireError::kInternalError;
  }
}

}  // namespace

Server::Server(const Sequential* source_model,
               const SourceCalibration* calibration,
               const TasfarOptions& options, const ServerConfig& config)
    : config_(config),
      manager_(source_model, calibration, options, config.manager) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status st =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status st =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  stop_.store(false, std::memory_order_relaxed);
  net_thread_ = std::make_unique<BackgroundThread>("serve-net",
                                                   [this] { NetLoop(); });
  TASFAR_LOG(kInfo) << "serve: listening on 127.0.0.1:" << bound_port_;
  return Status::Ok();
}

void Server::Stop() {
  if (net_thread_ == nullptr) return;
  stop_.store(true, std::memory_order_relaxed);
  net_thread_.reset();  // Joins; the loop closes client fds on exit.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::NetLoop() {
  std::vector<pollfd> fds;
  while (!stop_.load(std::memory_order_relaxed)) {
    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : connections_) {
      fds.push_back({fd, POLLIN, 0});
    }
    // 50 ms tick bounds the Stop() latency without burning CPU.
    const int ready = ::poll(fds.data(), fds.size(), 50);
    if (ready <= 0) continue;  // Timeout or EINTR.
    if ((fds[0].revents & POLLIN) != 0) AcceptOne();
    // Snapshot the fd list: handlers may erase from connections_.
    std::vector<pollfd> client_fds(fds.begin() + 1, fds.end());
    for (const pollfd& p : client_fds) {
      if ((p.revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      auto it = connections_.find(p.fd);
      if (it == connections_.end()) continue;
      char buf[64 * 1024];
      const ssize_t n = ::recv(p.fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        CloseConnection(p.fd);
        continue;
      }
      BytesReadCounter()->Increment(static_cast<uint64_t>(n));
      if (!HandleInput(p.fd, &it->second, buf, static_cast<size_t>(n))) {
        CloseConnection(p.fd);
      }
    }
  }
  // Drain: close every client before the thread exits.
  for (const auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
}

void Server::AcceptOne() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  if (TASFAR_FAILPOINT("serve.accept") ||
      connections_.size() >= kMaxConnections) {
    // Reject at the door: existing sessions and connections are worth
    // more than a new client under overload (docs/SERVING.md §Admission
    // control).
    RejectedCounter()->Increment();
    ::close(fd);
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (config_.write_timeout_ms > 0) {
    // Bound how long one stalled client can hold the single network
    // thread inside WriteAll; on expiry send() fails and the connection
    // is dropped (docs/SERVING.md §Admission control).
    timeval tv;
    tv.tv_sec = config_.write_timeout_ms / 1000;
    tv.tv_usec =
        static_cast<suseconds_t>(config_.write_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  connections_.emplace(fd, Connection{});
  AcceptedCounter()->Increment();
}

bool Server::HandleInput(int fd, Connection* conn, const char* data,
                         size_t n) {
  if (!conn->decided) {
    conn->sniff.append(data, n);
    if (conn->sniff.size() < 4) return true;  // Keep sniffing.
    conn->decided = true;
    conn->http = conn->sniff.compare(0, 4, "GET ") == 0;
    if (!conn->http) {
      conn->reader.Append(conn->sniff.data(), conn->sniff.size());
      conn->sniff.clear();
    }
  } else if (!conn->http) {
    conn->reader.Append(data, n);
  } else {
    conn->sniff.append(data, n);
  }
  if (conn->http) {
    // Route once the request line is complete. Anything a scraper or
    // browser appends after it (headers, body) is irrelevant and unread.
    if (conn->sniff.find('\n') == std::string::npos) {
      if (conn->sniff.size() > 8 * 1024) return false;  // Hostile line.
      return true;  // Keep reading the request line.
    }
    return HandleHttpGet(fd, conn->sniff);
  }
  for (;;) {
    Frame frame;
    const FrameReader::ReadResult r = conn->reader.Next(&frame);
    if (r == FrameReader::ReadResult::kNeedMore) return true;
    if (r == FrameReader::ReadResult::kError) {
      TASFAR_LOG(kWarning) << "serve: dropping connection: "
                           << conn->reader.error().ToString();
      RequestErrorsCounter()->Increment();
      // Best-effort decline so well-behaved clients see why.
      SendError(fd, WireError::kBadRequest,
                conn->reader.error().message());
      return false;
    }
    // A handler that throws (bad_alloc on a hostile payload, a bug in a
    // deeper layer) must cost its own connection, never the process: an
    // exception escaping the network thread would std::terminate the
    // whole multi-tenant daemon.
    bool keep = false;
    try {
      keep = HandleFrame(fd, frame);
    } catch (const std::exception& e) {
      TASFAR_LOG(kError) << "serve: exception handling "
                         << MessageTypeName(frame.type) << ": " << e.what();
      RequestErrorsCounter()->Increment();
      SendError(fd, WireError::kInternalError, "internal error");
      return false;
    } catch (...) {
      TASFAR_LOG(kError) << "serve: non-exception thrown handling "
                         << MessageTypeName(frame.type);
      RequestErrorsCounter()->Increment();
      SendError(fd, WireError::kInternalError, "internal error");
      return false;
    }
    if (!keep) return false;
  }
}

bool Server::HandleHttpGet(int fd, const std::string& request) {
  // Path = second space-separated token of "GET /path HTTP/1.x".
  std::string path;
  const size_t start = request.find(' ');
  if (start != std::string::npos) {
    const size_t end = request.find_first_of(" \r\n", start + 1);
    path = request.substr(start + 1,
                          end == std::string::npos ? std::string::npos
                                                   : end - start - 1);
  }
  std::string body;
  const char* status = "200 OK";
  if (path == "/metrics" || path == "/") {
    // "/" kept as an alias: pre-path-routing scrapers hit the bare port.
    body = obs::Registry::Get().ToPrometheusText();
  } else if (path == "/sessions") {
    body = manager_.SessionsText();
  } else if (path == "/healthz") {
    body = "ok\n";
  } else {
    status = "404 Not Found";
    body = "no such endpoint: " + path +
           " (try /metrics, /sessions, /healthz)\n";
  }
  std::string resp = std::string("HTTP/1.0 ") + status + "\r\n";
  resp += "Content-Type: text/plain; version=0.0.4\r\n";
  resp += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  resp += body;
  WriteAll(fd, resp.data(), resp.size());
  return false;  // One response per probe connection.
}

bool Server::HandleFrame(int fd, const Frame& frame) {
  // A traced frame carries the client's ambient context; installing it
  // here makes `serve.request` (and everything under it, including the
  // adapt job the runner picks up later) part of the caller's trace.
  obs::ScopedTraceContext tctx(
      obs::TraceContext{frame.trace_id, frame.span_id});
  TASFAR_TRACE_SPAN("serve.request");
  RequestsCounter()->Increment();
  switch (frame.type) {
    case MessageType::kCreateSession:
      return HandleCreateSession(fd, frame.payload);
    case MessageType::kSubmitTargetData:
      return HandleSubmitTargetData(fd, frame.payload);
    case MessageType::kAdapt:
      return HandleAdapt(fd, frame.payload);
    case MessageType::kQuerySession:
      return HandleQuerySession(fd, frame.payload);
    case MessageType::kPredict:
      return HandlePredict(fd, frame.payload);
    case MessageType::kSaveSession:
      return HandleSaveSession(fd, frame.payload);
    case MessageType::kRestoreSession:
      return HandleRestoreSession(fd, frame.payload);
    case MessageType::kCloseSession:
      return HandleCloseSession(fd, frame.payload);
    case MessageType::kGetMetrics: {
      PayloadWriter w;
      w.PutString(obs::Registry::Get().ToPrometheusText());
      return SendFrame(fd, MessageType::kMetricsResponse, w.Take());
    }
    case MessageType::kPing:
      return SendFrame(fd, MessageType::kPongResponse, "");
    case MessageType::kInspectSession:
      return HandleInspectSession(fd, frame.payload);
    default:
      // A response type sent as a request.
      return SendError(fd, WireError::kBadRequest,
                       std::string("not a request: ") +
                           MessageTypeName(frame.type));
  }
}

bool Server::HandleCreateSession(int fd, const std::string& payload) {
  PayloadReader r(payload);
  std::string user;
  uint64_t seed = 0;
  uint32_t input_dim = 0;
  uint64_t budget = 0;
  uint8_t backend_wire = 0;
  if (!r.GetString(&user) || !r.GetU64(&seed) || !r.GetU32(&input_dim) ||
      !r.GetU64(&budget) || !r.GetU8(&backend_wire) || !r.AtEnd()) {
    return SendError(fd, WireError::kBadRequest,
                     "malformed create_session payload");
  }
  if (input_dim == 0) {
    return SendError(fd, WireError::kBadRequest, "input_dim must be > 0");
  }
  UncertaintyBackend backend = UncertaintyBackend::kMcDropout;
  if (!ParseUncertaintyBackendWire(backend_wire, &backend)) {
    return SendError(fd, WireError::kBadRequest,
                     "unknown uncertainty backend " +
                         std::to_string(backend_wire));
  }
  SessionConfig cfg;
  cfg.seed = seed;
  cfg.input_dim = input_dim;
  cfg.budget_bytes = static_cast<size_t>(budget);
  cfg.backend = backend;
  const Status st = manager_.Create(user, cfg);
  if (!st.ok()) {
    if (st.code() == StatusCode::kOutOfRange) {
      return SendError(fd, WireError::kServerBusy, st.message());
    }
    return SendStatusError(fd, st, /*adapt_context=*/false);
  }
  PayloadWriter w;
  w.PutString("");
  return SendFrame(fd, MessageType::kOkResponse, w.Take());
}

bool Server::HandleSubmitTargetData(int fd, const std::string& payload) {
  PayloadReader r(payload);
  std::string user;
  uint32_t rows = 0;
  uint32_t cols = 0;
  if (!r.GetString(&user) || !r.GetU32(&rows) || !r.GetU32(&cols)) {
    return SendError(fd, WireError::kBadRequest,
                     "malformed submit_target_data payload");
  }
  // Compare via division: `cells * 8` can wrap uint64 for adversarial
  // rows/cols, letting an empty payload "match" and the vector below
  // attempt a 2^61-element allocation.
  const uint64_t cells = static_cast<uint64_t>(rows) * cols;
  if (r.remaining() % 8 != 0 || r.remaining() / 8 != cells) {
    return SendError(fd, WireError::kBadRequest,
                     "row data does not match rows*cols");
  }
  std::shared_ptr<Session> session = manager_.Find(user);
  if (session == nullptr) {
    return SendError(fd, WireError::kUnknownSession,
                     "no session '" + user + "'");
  }
  std::vector<double> data(cells);
  for (uint64_t i = 0; i < cells; ++i) r.GetDouble(&data[i]);
  const Status st = session->SubmitRows(rows, cols, data.data());
  if (!st.ok()) return SendStatusError(fd, st, /*adapt_context=*/false);
  PayloadWriter w;
  w.PutString("");
  return SendFrame(fd, MessageType::kOkResponse, w.Take());
}

bool Server::HandleAdapt(int fd, const std::string& payload) {
  PayloadReader r(payload);
  std::string user;
  uint64_t adapt_seed = 0;
  if (!r.GetString(&user) || !r.GetU64(&adapt_seed) || !r.AtEnd()) {
    return SendError(fd, WireError::kBadRequest, "malformed adapt payload");
  }
  const Status st = manager_.SubmitAdapt(user, adapt_seed);
  if (!st.ok()) return SendStatusError(fd, st, /*adapt_context=*/true);
  PayloadWriter w;
  w.PutString("adapt job queued");
  return SendFrame(fd, MessageType::kOkResponse, w.Take());
}

bool Server::HandleQuerySession(int fd, const std::string& payload) {
  PayloadReader r(payload);
  std::string user;
  if (!r.GetString(&user) || !r.AtEnd()) {
    return SendError(fd, WireError::kBadRequest,
                     "malformed query_session payload");
  }
  std::shared_ptr<Session> session = manager_.Find(user);
  if (session == nullptr) {
    return SendError(fd, WireError::kUnknownSession,
                     "no session '" + user + "'");
  }
  const SessionInfo info = session->Info();
  PayloadWriter w;
  w.PutU8(static_cast<uint8_t>(info.state));
  w.PutU64(info.pending_rows);
  w.PutU64(info.input_dim);
  w.PutU64(info.budget_bytes);
  w.PutU64(info.used_bytes);
  w.PutU64(info.adapt_runs);
  w.PutU8(info.serving_adapted ? 1 : 0);
  w.PutString(info.backend);
  w.PutString(info.degraded_reason);
  return SendFrame(fd, MessageType::kSessionInfoResponse, w.Take());
}

bool Server::HandlePredict(int fd, const std::string& payload) {
  PayloadReader r(payload);
  std::string user;
  uint32_t rows = 0;
  uint32_t cols = 0;
  if (!r.GetString(&user) || !r.GetU32(&rows) || !r.GetU32(&cols)) {
    return SendError(fd, WireError::kBadRequest,
                     "malformed predict payload");
  }
  // Division instead of `cells * 8`: see HandleSubmitTargetData.
  const uint64_t cells = static_cast<uint64_t>(rows) * cols;
  if (rows == 0 || r.remaining() % 8 != 0 || r.remaining() / 8 != cells) {
    return SendError(fd, WireError::kBadRequest,
                     "row data does not match rows*cols");
  }
  std::shared_ptr<Session> session = manager_.Find(user);
  if (session == nullptr) {
    return SendError(fd, WireError::kUnknownSession,
                     "no session '" + user + "'");
  }
  std::vector<double> data(cells);
  for (uint64_t i = 0; i < cells; ++i) r.GetDouble(&data[i]);
  const Tensor inputs(std::vector<size_t>{rows, cols}, std::move(data));
  Result<ServedPrediction> result = session->Predict(inputs);
  if (!result.ok()) {
    return SendStatusError(fd, result.status(), /*adapt_context=*/false);
  }
  const ServedPrediction& served = result.value();
  const uint32_t out_dim =
      served.predictions.empty()
          ? 0
          : static_cast<uint32_t>(served.predictions.front().mean.size());
  PayloadWriter w;
  w.PutU8(served.from_adapted ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(served.predictions.size()));
  w.PutU32(out_dim);
  for (const McPrediction& p : served.predictions) {
    for (double v : p.mean) w.PutDouble(v);
    for (double v : p.std) w.PutDouble(v);
  }
  return SendFrame(fd, MessageType::kPredictResponse, w.Take());
}

bool Server::HandleSaveSession(int fd, const std::string& payload) {
  PayloadReader r(payload);
  std::string user;
  if (!r.GetString(&user) || !r.AtEnd()) {
    return SendError(fd, WireError::kBadRequest,
                     "malformed save_session payload");
  }
  std::shared_ptr<Session> session = manager_.Find(user);
  if (session == nullptr) {
    return SendError(fd, WireError::kUnknownSession,
                     "no session '" + user + "'");
  }
  PayloadWriter w;
  w.PutString(session->SerializeState());
  return SendFrame(fd, MessageType::kOkResponse, w.Take());
}

bool Server::HandleRestoreSession(int fd, const std::string& payload) {
  PayloadReader r(payload);
  std::string user, blob;
  if (!r.GetString(&user) || !r.GetString(&blob) || !r.AtEnd()) {
    return SendError(fd, WireError::kBadRequest,
                     "malformed restore_session payload");
  }
  std::shared_ptr<Session> session = manager_.Find(user);
  if (session == nullptr) {
    return SendError(fd, WireError::kUnknownSession,
                     "no session '" + user + "'");
  }
  const Status st = session->RestoreState(blob);
  if (!st.ok()) return SendStatusError(fd, st, /*adapt_context=*/false);
  PayloadWriter w;
  w.PutString("");
  return SendFrame(fd, MessageType::kOkResponse, w.Take());
}

bool Server::HandleCloseSession(int fd, const std::string& payload) {
  PayloadReader r(payload);
  std::string user;
  if (!r.GetString(&user) || !r.AtEnd()) {
    return SendError(fd, WireError::kBadRequest,
                     "malformed close_session payload");
  }
  const Status st = manager_.Close(user);
  if (!st.ok()) return SendStatusError(fd, st, /*adapt_context=*/false);
  PayloadWriter w;
  w.PutString("");
  return SendFrame(fd, MessageType::kOkResponse, w.Take());
}

bool Server::HandleInspectSession(int fd, const std::string& payload) {
  PayloadReader r(payload);
  std::string user;
  if (!r.GetString(&user) || !r.AtEnd()) {
    return SendError(fd, WireError::kBadRequest,
                     "malformed inspect_session payload");
  }
  std::shared_ptr<Session> session = manager_.Find(user);
  if (session == nullptr) {
    return SendError(fd, WireError::kUnknownSession,
                     "no session '" + user + "'");
  }
  const SessionInfo info = session->Info();
  const TelemetrySnapshot telemetry = session->Telemetry();
  PayloadWriter w;
  w.PutU8(static_cast<uint8_t>(info.state));
  w.PutU32(static_cast<uint32_t>(telemetry.adapt_samples.size()));
  for (const AdaptSample& s : telemetry.adapt_samples) {
    w.PutU64(s.t_us);
    w.PutU64(s.adapt_run);
    w.PutU8(s.outcome);
    w.PutDouble(s.uncertain_ratio);
    w.PutDouble(s.mean_credibility);
    w.PutDouble(s.density_total_mass);
    w.PutDouble(s.density_mean_sigma);
    w.PutDouble(s.final_loss);
    w.PutU64(s.epochs);
    w.PutU32(s.epoch_loss_count);
    for (uint32_t i = 0; i < s.epoch_loss_count; ++i) {
      w.PutDouble(s.epoch_losses[i]);
    }
  }
  w.PutU64(telemetry.predict_count);
  w.PutDouble(telemetry.predict_p50_ms);
  w.PutDouble(telemetry.predict_p99_ms);
  w.PutU32(static_cast<uint32_t>(telemetry.flight_events.size()));
  for (const FlightEvent& ev : telemetry.flight_events) {
    w.PutU64(ev.t_us);
    w.PutU8(static_cast<uint8_t>(ev.code));
    w.PutString(FlightCodeName(ev.code));
    w.PutU64(ev.trace_id);
    w.PutString(ev.detail);
  }
  w.PutString(telemetry.last_dump);
  return SendFrame(fd, MessageType::kSessionTelemetryResponse, w.Take());
}

bool Server::SendFrame(int fd, MessageType type, const std::string& payload) {
  const std::string frame = EncodeFrame(type, payload);
  return WriteAll(fd, frame.data(), frame.size());
}

bool Server::SendError(int fd, WireError code, const std::string& message) {
  RequestErrorsCounter()->Increment();
  PayloadWriter w;
  w.PutU16(static_cast<uint16_t>(code));
  w.PutString(message);
  return SendFrame(fd, MessageType::kErrorResponse, w.Take());
}

bool Server::SendStatusError(int fd, const Status& status,
                             bool adapt_context) {
  WireError code = WireErrorFor(status.code());
  if (adapt_context && status.code() == StatusCode::kOutOfRange &&
      status.message().find("queue") != std::string::npos) {
    code = WireError::kServerBusy;
  }
  return SendError(fd, code, status.message());
}

bool Server::WriteAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO expired: the peer stopped reading. Drop it rather
        // than stall every other tenant behind its full socket buffer.
        TASFAR_LOG(kWarning)
            << "serve: send timed out after " << config_.write_timeout_ms
            << " ms; dropping stalled client";
      }
      return false;
    }
    off += static_cast<size_t>(w);
  }
  BytesWrittenCounter()->Increment(n);
  return true;
}

void Server::CloseConnection(int fd) {
  ::close(fd);
  connections_.erase(fd);
}

}  // namespace tasfar::serve
