#ifndef TASFAR_SERVE_SESSION_MANAGER_H_
#define TASFAR_SERVE_SESSION_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/session.h"
#include "util/thread_pool.h"

namespace tasfar::serve {

/// Runs adapt jobs one at a time on a dedicated BackgroundThread, with a
/// bounded FIFO queue as admission control: TrySubmit refuses (→ the wire
/// error `server_busy`) instead of letting a burst of Adapt requests build
/// an unbounded backlog. One consumer is deliberate — each job internally
/// fans its compute onto the global ParallelFor pool, so running two jobs
/// at once would just thrash the same cores (docs/THREADING.md).
class JobRunner {
 public:
  explicit JobRunner(size_t queue_capacity);

  /// Drains already-queued jobs, then joins the worker.
  ~JobRunner();

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Enqueues `job`; false when the queue is at capacity or the runner is
  /// shutting down (the job is then never run).
  bool TrySubmit(std::function<void()> job);

  /// Blocks until every job enqueued so far has finished. Test helper.
  void Drain();

 private:
  void RunLoop();

  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  bool running_job_ = false;
  bool stop_ = false;
  /// Declared last: the worker starts in the constructor and touches the
  /// members above, which must outlive it.
  std::unique_ptr<BackgroundThread> worker_;
};

/// Longest accepted user id (docs/PROTOCOL.md §create_session).
inline constexpr size_t kMaxUserIdBytes = 256;

/// SessionManager limits.
struct ManagerConfig {
  size_t max_sessions = 64;
  /// Budget applied to sessions whose CreateSession carries budget 0.
  size_t default_budget_bytes = 64u * 1024u * 1024u;
};

/// Owner of every live session, keyed by user id, plus the shared adapt
/// JobRunner. All mutating calls come from the server's single network
/// thread; the internal lock exists because jobs finish on the runner
/// thread while holding shared_ptr references to their session (a session
/// closed mid-job stays alive until the job releases it).
class SessionManager {
 public:
  /// `source_model` and `calibration` are shared by every session and must
  /// outlive the manager. `calibration` is registered under
  /// `options.uncertainty_backend` — the backend it was fit on.
  SessionManager(const Sequential* source_model,
                 const SourceCalibration* calibration,
                 const TasfarOptions& options, const ManagerConfig& config);

  /// Registers the Q_s calibration sessions created with `backend` adapt
  /// against. Q_s maps *that backend's* uncertainty scale to an error
  /// quantile, so each served backend needs its own fit — a session
  /// requesting a backend with no registered calibration is rejected at
  /// create (docs/UNCERTAINTY.md §Serving). `calibration` must outlive
  /// the manager. Not synchronized against Create: call before the server
  /// starts accepting connections.
  void RegisterBackendCalibration(UncertaintyBackend backend,
                                  const SourceCalibration* calibration);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a session for `user_id`. InvalidArgument when the id is
  /// empty, longer than kMaxUserIdBytes, or contains whitespace/control
  /// characters (such an id could not round-trip SerializeState), or when
  /// `config.backend` has no registered calibration;
  /// FailedPrecondition when the id is taken, OutOfRange when the server
  /// is at max_sessions (`tasfar.serve.sessions.rejected` increments).
  Status Create(const std::string& user_id, const SessionConfig& config);

  /// The live session for `user_id`, or nullptr.
  std::shared_ptr<Session> Find(const std::string& user_id) const;

  /// Removes the session (an in-flight adapt job keeps its reference and
  /// finishes against the orphaned session). NotFound when absent.
  Status Close(const std::string& user_id);

  /// Admission-controlled async adapt: BeginAdapt, then enqueue the job.
  /// Forwards BeginAdapt failures; OutOfRange("job queue full") when the
  /// runner refuses, with the session reverted to accumulating.
  Status SubmitAdapt(const std::string& user_id, uint64_t adapt_seed);

  size_t NumSessions() const;

  /// One-line-per-session plain-text table (the `/sessions` endpoint and
  /// `tools/obs/tasfar_top`): a fixed header row, then per session
  /// space-separated columns ending in the free-form degraded reason
  /// ("-" when healthy). User ids cannot contain whitespace, so every
  /// column before the reason splits unambiguously.
  std::string SessionsText() const;

  /// Blocks until queued adapt jobs finished. Test helper.
  void DrainJobs() { runner_.Drain(); }

  const ManagerConfig& config() const { return config_; }

 private:
  const Sequential* source_model_;
  const TasfarOptions options_;
  const ManagerConfig config_;
  /// Backend → the Q_s calibration fit on that backend's uncertainty
  /// scale. Immutable once the server is accepting connections.
  std::map<UncertaintyBackend, const SourceCalibration*> calibrations_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  JobRunner runner_;
};

}  // namespace tasfar::serve

#endif  // TASFAR_SERVE_SESSION_MANAGER_H_
