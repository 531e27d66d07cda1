#ifndef TASFAR_SERVE_SERVER_H_
#define TASFAR_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "util/thread_pool.h"

namespace tasfar::serve {

/// Server limits and listen address.
struct ServerConfig {
  /// TCP port to listen on (loopback only). 0 picks an ephemeral port;
  /// read the actual one back with Server::port().
  uint16_t port = 0;
  /// Upper bound on how long one send() to a client may block the network
  /// thread (SO_SNDTIMEO). A client that stops reading its socket hits
  /// this and is dropped instead of head-of-line-blocking every other
  /// tenant. 0 disables the timeout (tests only).
  uint32_t write_timeout_ms = 5000;
  ManagerConfig manager;
};

/// The TASFAR adaptation server (docs/SERVING.md).
///
/// One BackgroundThread runs a poll() loop over the listen socket and all
/// client connections, decoding frames (serve/protocol.h) and dispatching
/// them against the SessionManager. Adapt requests only *enqueue* onto the
/// manager's JobRunner, so the network loop never blocks on a fine-tune;
/// the job's compute fans out through the global ParallelFor pool.
///
/// A connection whose first bytes are "GET " is treated as a plain-HTTP
/// probe, routed by path (`/metrics` Prometheus text, `/sessions` the
/// per-tenant table, `/healthz` liveness; anything else 404), answered,
/// and closed — usable with a stock scraper, curl, or tasfar_top.
class Server {
 public:
  /// `source_model` and `calibration` are shared (read-only) by every
  /// session and must outlive the server.
  Server(const Sequential* source_model, const SourceCalibration* calibration,
         const TasfarOptions& options, const ServerConfig& config);

  /// Stops and joins if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers the calibration sessions created with `backend` adapt
  /// against (the ctor's `calibration` covers `options.uncertainty_backend`
  /// only). Creates requesting an unregistered backend are rejected with
  /// `bad_request`. Call before Start(); `calibration` must outlive the
  /// server.
  void RegisterBackendCalibration(UncertaintyBackend backend,
                                  const SourceCalibration* calibration) {
    manager_.RegisterBackendCalibration(backend, calibration);
  }

  /// Binds, listens, and starts the network thread. IoError when the
  /// socket setup fails (e.g. port in use).
  Status Start();

  /// Stops the network thread, closes every connection. Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return bound_port_; }

  SessionManager& manager() { return manager_; }

 private:
  /// Per-connection decode state.
  struct Connection {
    FrameReader reader;
    /// First bytes, held until protocol-vs-HTTP is decided (and, for
    /// HTTP, until the request line is complete enough to route).
    std::string sniff;
    bool decided = false;
    /// Decided as HTTP; still accumulating the request line in `sniff`.
    bool http = false;
  };

  void NetLoop();
  void AcceptOne();
  /// Feeds freshly read bytes; false when the connection must close.
  bool HandleInput(int fd, Connection* conn, const char* data, size_t n);
  /// Dispatches one decoded frame; false closes the connection.
  bool HandleFrame(int fd, const Frame& frame);
  /// Answers one routed HTTP GET (always closes: returns false).
  bool HandleHttpGet(int fd, const std::string& request);
  bool SendFrame(int fd, MessageType type, const std::string& payload);
  bool SendError(int fd, WireError code, const std::string& message);
  /// Maps a Status from the session layer onto the wire (`adapt` selects
  /// kServerBusy vs kBudgetExceeded for OutOfRange by origin).
  bool SendStatusError(int fd, const Status& status, bool adapt_context);
  bool WriteAll(int fd, const char* data, size_t n);
  void CloseConnection(int fd);

  bool HandleCreateSession(int fd, const std::string& payload);
  bool HandleSubmitTargetData(int fd, const std::string& payload);
  bool HandleAdapt(int fd, const std::string& payload);
  bool HandleQuerySession(int fd, const std::string& payload);
  bool HandlePredict(int fd, const std::string& payload);
  bool HandleSaveSession(int fd, const std::string& payload);
  bool HandleRestoreSession(int fd, const std::string& payload);
  bool HandleCloseSession(int fd, const std::string& payload);
  bool HandleInspectSession(int fd, const std::string& payload);

  const ServerConfig config_;
  SessionManager manager_;

  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> stop_{false};
  std::map<int, Connection> connections_;
  std::unique_ptr<BackgroundThread> net_thread_;
};

}  // namespace tasfar::serve

#endif  // TASFAR_SERVE_SERVER_H_
