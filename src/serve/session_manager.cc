#include "serve/session_manager.h"

#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace tasfar::serve {

namespace {

/// Adapt jobs queued behind the running one before kAdapt answers
/// kServerBusy (docs/SERVING.md §Admission control).
constexpr size_t kAdaptQueueCapacity = 16;

obs::Counter* SessionsCreatedCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.sessions.created");
  return kCounter;
}

obs::Counter* SessionsClosedCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.sessions.closed");
  return kCounter;
}

obs::Counter* SessionsRejectedCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.sessions.rejected");
  return kCounter;
}

obs::Gauge* SessionsActiveGauge() {
  static obs::Gauge* const kGauge =
      obs::Registry::Get().GetGauge("tasfar.serve.sessions.active");
  return kGauge;
}

obs::Counter* AdaptRejectedCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.adapt.rejected");
  return kCounter;
}

obs::Gauge* AdaptQueuedGauge() {
  static obs::Gauge* const kGauge =
      obs::Registry::Get().GetGauge("tasfar.serve.adapt.queued");
  return kGauge;
}

}  // namespace

JobRunner::JobRunner(size_t queue_capacity)
    : capacity_(queue_capacity == 0 ? 1 : queue_capacity) {
  worker_ = std::make_unique<BackgroundThread>("serve-adapt-runner",
                                               [this] { RunLoop(); });
}

JobRunner::~JobRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  idle_cv_.notify_all();
  worker_.reset();  // Joins after the queue drains.
}

bool JobRunner::TrySubmit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(job));
    AdaptQueuedGauge()->Set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return true;
}

void JobRunner::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !running_job_; });
}

void JobRunner::RunLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stop_ set and drained. Wake Drain() waiters before exiting:
        // without this, one racing the shutdown against an already-empty
        // queue would miss its only notification and wait forever.
        lock.unlock();
        idle_cv_.notify_all();
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      running_job_ = true;
      AdaptQueuedGauge()->Set(static_cast<double>(queue_.size()));
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_job_ = false;
    }
    idle_cv_.notify_all();
  }
}

SessionManager::SessionManager(const Sequential* source_model,
                               const SourceCalibration* calibration,
                               const TasfarOptions& options,
                               const ManagerConfig& config)
    : source_model_(source_model),
      options_(options),
      config_(config),
      runner_(kAdaptQueueCapacity) {
  TASFAR_CHECK(source_model_ != nullptr && calibration != nullptr);
  calibrations_[options_.uncertainty_backend] = calibration;
}

void SessionManager::RegisterBackendCalibration(
    UncertaintyBackend backend, const SourceCalibration* calibration) {
  TASFAR_CHECK(calibration != nullptr);
  calibrations_[backend] = calibration;
}

Status SessionManager::Create(const std::string& user_id,
                              const SessionConfig& config) {
  if (user_id.empty()) {
    return Status::InvalidArgument("user id must be non-empty");
  }
  if (user_id.size() > kMaxUserIdBytes) {
    return Status::InvalidArgument(
        "user id longer than " + std::to_string(kMaxUserIdBytes) + " bytes");
  }
  // Session blobs serialize the id on a whitespace-delimited text line
  // (Session::SerializeState), so an id with spaces or control characters
  // would produce a save its own restore rejects.
  for (const char c : user_id) {
    if (static_cast<unsigned char>(c) <= 0x20 || c == 0x7f) {
      return Status::InvalidArgument(
          "user id must not contain whitespace or control characters");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= config_.max_sessions) {
    SessionsRejectedCounter()->Increment();
    return Status::OutOfRange(
        "server at max_sessions (" + std::to_string(config_.max_sessions) +
        ")");
  }
  if (sessions_.count(user_id) != 0) {
    return Status::FailedPrecondition("session '" + user_id +
                                      "' already exists");
  }
  SessionConfig cfg = config;
  if (cfg.budget_bytes == 0) cfg.budget_bytes = config_.default_budget_bytes;
  // Sessions adapt against the calibration fit on their backend's
  // uncertainty scale; thresholding one backend's uncertainty against
  // another backend's τ silently degenerates the confidence split.
  const auto calib_it = calibrations_.find(cfg.backend);
  if (calib_it == calibrations_.end()) {
    return Status::InvalidArgument(
        std::string("no calibration registered for backend '") +
        UncertaintyBackendName(cfg.backend) + "'");
  }
  sessions_.emplace(user_id,
                    std::make_shared<Session>(user_id, *source_model_,
                                              calib_it->second, options_,
                                              cfg));
  SessionsCreatedCounter()->Increment();
  SessionsActiveGauge()->Set(static_cast<double>(sessions_.size()));
  return Status::Ok();
}

std::shared_ptr<Session> SessionManager::Find(
    const std::string& user_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(user_id);
  return it == sessions_.end() ? nullptr : it->second;
}

Status SessionManager::Close(const std::string& user_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(user_id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session '" + user_id + "'");
  }
  sessions_.erase(it);
  SessionsClosedCounter()->Increment();
  SessionsActiveGauge()->Set(static_cast<double>(sessions_.size()));
  return Status::Ok();
}

Status SessionManager::SubmitAdapt(const std::string& user_id,
                                   uint64_t adapt_seed) {
  std::shared_ptr<Session> session = Find(user_id);
  if (session == nullptr) {
    return Status::NotFound("no session '" + user_id + "'");
  }
  TASFAR_RETURN_IF_ERROR(session->BeginAdapt());
  // The shared_ptr rides in the closure, so CloseSession racing the queue
  // cannot leave the job with a dangling session. The submitter's trace
  // context rides along too, so the job's `serve.adapt_job` span chains
  // onto the request's trace across the runner thread.
  const obs::TraceContext trace_ctx = obs::TracingEnabled()
                                          ? obs::CurrentTraceContext()
                                          : obs::TraceContext{};
  const bool queued = runner_.TrySubmit([session, adapt_seed, trace_ctx] {
    obs::ScopedTraceContext tctx(trace_ctx);
    session->RunAdaptAndFinish(adapt_seed);
  });
  if (!queued) {
    session->AbortAdapt();
    AdaptRejectedCounter()->Increment();
    return Status::OutOfRange("adapt job queue full");
  }
  return Status::Ok();
}

size_t SessionManager::NumSessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::string SessionManager::SessionsText() const {
  // Grab the shared_ptrs under the manager lock, render outside it: each
  // row takes the session's own lock (Info/Telemetry), and holding both
  // would order manager-lock → session-lock against the adapt runner.
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.reserve(sessions_.size());
    for (const auto& [_, session] : sessions_) sessions.push_back(session);
  }
  std::ostringstream out;
  out << "user state backend rows used_bytes budget_bytes budget_pct "
         "adapt_runs last_adapt predict_count predict_p50_ms "
         "predict_p99_ms degraded_reason\n";
  for (const std::shared_ptr<Session>& session : sessions) {
    const SessionInfo info = session->Info();
    const TelemetrySnapshot telemetry = session->Telemetry();
    const char* last_adapt =
        telemetry.adapt_samples.empty()
            ? "none"
            : AdaptOutcomeName(static_cast<AdaptOutcome>(
                  telemetry.adapt_samples.back().outcome));
    const double pct =
        info.budget_bytes == 0
            ? 0.0
            : 100.0 * static_cast<double>(info.used_bytes) /
                  static_cast<double>(info.budget_bytes);
    char buf[160];
    std::snprintf(buf, sizeof(buf), " %.1f %llu %s %llu %.3f %.3f ",
                  pct, static_cast<unsigned long long>(info.adapt_runs),
                  last_adapt,
                  static_cast<unsigned long long>(telemetry.predict_count),
                  telemetry.predict_p50_ms, telemetry.predict_p99_ms);
    // The user id cannot contain whitespace (Create rejects it), so the
    // free-form degraded reason is safe as the final column.
    out << info.user_id << ' ' << SessionStateName(info.state) << ' '
        << info.backend << ' ' << info.pending_rows << ' '
        << info.used_bytes << ' ' << info.budget_bytes << buf
        << (info.degraded_reason.empty() ? "-" : info.degraded_reason)
        << "\n";
  }
  return out.str();
}

}  // namespace tasfar::serve
