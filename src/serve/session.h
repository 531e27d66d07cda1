#ifndef TASFAR_SERVE_SESSION_H_
#define TASFAR_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/tasfar.h"
#include "nn/sequential.h"
#include "serve/telemetry.h"
#include "uncertainty/estimator.h"
#include "util/status.h"

namespace tasfar::serve {

/// Lifecycle of one per-user adaptation session (docs/SERVING.md §Session
/// state machine):
///
///   created ──submit──► accumulating ──adapt──► adapting ──ok──► adapted
///      ▲                     ▲  │                   │
///      │                     │  └──submit (more)    └─fault─► degraded
///   restore              submit after adapted/degraded
///
/// `adapted` and `degraded` both keep serving predictions — `degraded`
/// from the unmodified source replica (the paper's never-worse-than-source
/// fallback), `adapted` from the fine-tuned model. A session is never dead.
enum class SessionState : uint8_t {
  kCreated = 0,
  kAccumulating = 1,
  kAdapting = 2,
  kAdapted = 3,
  kDegraded = 4,
};

/// Stable lowercase state name ("created", ...).
const char* SessionStateName(SessionState state);

/// Per-session knobs, fixed at creation.
struct SessionConfig {
  /// Memory budget covering accumulated target rows, the adapted model's
  /// detached parameters, and the retained density map (docs/SERVING.md
  /// §Memory budget). Submits and adapts that would overflow are rejected.
  size_t budget_bytes = 64u * 1024u * 1024u;
  /// Root seed of the session's stochastic prediction streams. The k-th
  /// Predict after the serving model last changed is a deterministic
  /// function of (model, backend, seed, k).
  uint64_t seed = 0x5eedULL;
  /// Rows per forward batch in Predict.
  static constexpr size_t predict_batch = 64;
  /// Expected feature count of submitted/predicted rows.
  size_t input_dim = 0;
  /// Uncertainty backend serving this session's predictions and adapt
  /// jobs (kCreateSession's `backend` field; docs/UNCERTAINTY.md). The
  /// kDeepEnsemble backend's member replicas are charged on the budget.
  UncertaintyBackend backend = UncertaintyBackend::kMcDropout;
};

/// Snapshot of a session's externally visible state (kQuerySession).
struct SessionInfo {
  std::string user_id;
  SessionState state = SessionState::kCreated;
  /// Accumulated target rows resident in the session. Rows are retained
  /// across a successful adapt (later submits extend them for a re-adapt),
  /// so this only shrinks when the session is closed.
  uint64_t pending_rows = 0;
  uint64_t input_dim = 0;
  uint64_t budget_bytes = 0;
  uint64_t used_bytes = 0;
  uint64_t adapt_runs = 0;  ///< Completed (successful) adapt jobs.
  bool serving_adapted = false;
  std::string degraded_reason;  ///< "" unless state == kDegraded.
  /// Stable backend name ("mc_dropout", ...) of the session's estimator.
  std::string backend;
};

/// Result of one served prediction.
struct ServedPrediction {
  std::vector<McPrediction> predictions;
  bool from_adapted = false;  ///< False: source-model (fallback) serving.
};

/// One user's resident adaptation session.
///
/// Owns a zero-copy replica of the shared source model (parameters share
/// the server's buffers until fine-tuning detaches them — docs/MEMORY.md),
/// the accumulated unlabeled target rows, the session's density map from
/// the last adaptation, and the uncertainty estimator serving requests
/// (the backend chosen at creation — docs/UNCERTAINTY.md).
///
/// Thread model: all public methods are internally locked and may be
/// called from the network thread and the adapt worker concurrently.
/// RunAdaptAndFinish does the long fine-tune outside the lock, so Predict
/// keeps serving (from the previous model) while an adapt job runs.
class Session {
 public:
  /// `source_model` is cloned zero-copy; the original is never mutated and
  /// must outlive the session. `calibration` must outlive the session.
  Session(std::string user_id, const Sequential& source_model,
          const SourceCalibration* calibration, const TasfarOptions& options,
          const SessionConfig& config);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Appends `rows` unlabeled target rows of `cols` features each
  /// (row-major `data`). InvalidArgument on a feature-count mismatch,
  /// FailedPrecondition while an adapt job is in flight, OutOfRange when
  /// the session budget would overflow.
  Status SubmitRows(size_t rows, size_t cols, const double* data);

  /// Transitions accumulating → adapting and snapshots the pending rows
  /// for the job. FailedPrecondition unless state is accumulating,
  /// OutOfRange when the post-adapt footprint would overflow the budget.
  Status BeginAdapt();

  /// Reverts adapting → accumulating without running the job (used when
  /// admission control cannot enqueue the job after BeginAdapt).
  void AbortAdapt();

  /// The adapt-job body (call after a successful BeginAdapt, typically on
  /// the serve job runner): runs the TASFAR pipeline on the snapshot and
  /// installs the adapted model, or degrades to source-model serving on
  /// any fault (fallback report, exception, or an injected
  /// `serve.adapt_job` failpoint kill). Never throws; the session always
  /// leaves kAdapting.
  void RunAdaptAndFinish(uint64_t adapt_seed);

  /// Uncertainty-annotated predictions through the current serving model
  /// (adapted when available, source otherwise — including while adapting
  /// and when degraded). InvalidArgument on a feature-count mismatch.
  Result<ServedPrediction> Predict(const Tensor& inputs);

  SessionInfo Info() const;

  /// Versioned text serialization of the session (state, pending rows,
  /// adapted parameters, density map). RestoreState applies it to a
  /// freshly created session of the same architecture *and user id*
  /// (InvalidArgument on a mismatch — blobs never cross tenants); an
  /// in-flight adapting state is saved as accumulating (jobs do not
  /// survive the file) and a blob claiming `adapting` is rejected. The
  /// blob's footprint is charged against this session's budget
  /// (OutOfRange on overflow) — restore is not a side door past
  /// admission control.
  std::string SerializeState() const;
  Status RestoreState(const std::string& text);

  /// Copy of the session's telemetry rings (docs/OBSERVABILITY.md
  /// §Session telemetry) — the InspectSession / `/sessions` payload.
  TelemetrySnapshot Telemetry() const;

  const std::string& user_id() const { return user_id_; }

 private:
  /// Budget accounting (callers hold mu_): BudgetBytes of the session's
  /// current rows, adapted parameters and density map.
  size_t UsedBytesLocked() const;
  /// The budget formula (docs/SERVING.md §Memory budget): bytes held by
  /// `row_values` doubles of target rows, the detached adapted parameters
  /// when `adapted`, a density map of `density_cells` cells, the member
  /// replicas of the kDeepEnsemble backend, and the telemetry rings.
  /// UsedBytesLocked and RestoreState both charge through it, so a restored
  /// blob costs what the same state costs when built by SubmitRows and an
  /// adapt job.
  size_t BudgetBytes(size_t row_values, bool adapted,
                     size_t density_cells) const;
  /// Serves `model` through a fresh MakeEstimator build, so the swapped-in
  /// model's first Predict is call index 0 (callers hold mu_).
  void ServeModelLocked(std::unique_ptr<Sequential> model, bool adapted);

  const std::string user_id_;
  const SourceCalibration* calibration_;
  const TasfarOptions options_;
  const SessionConfig config_;
  const size_t param_count_;

  mutable std::mutex mu_;
  SessionState state_ = SessionState::kCreated;
  /// Zero-copy replica of the server's source model; never mutated.
  std::unique_ptr<Sequential> base_model_;
  /// The model predictions are served from (== base_model_ until the
  /// first successful adapt installs a fine-tuned model).
  std::unique_ptr<Sequential> serving_model_;
  std::unique_ptr<UncertaintyEstimator> predictor_;
  bool serving_adapted_ = false;
  /// Accumulated unlabeled target rows, row-major.
  std::vector<double> rows_;
  size_t num_rows_ = 0;
  /// Row count frozen by BeginAdapt for the in-flight job. Submits are
  /// rejected while kAdapting, so the job reads rows_ without copying.
  size_t adapt_num_rows_ = 0;
  std::optional<DensityMap> density_map_;
  uint64_t adapt_runs_ = 0;
  uint64_t adapt_attempts_ = 0;  ///< All adapt jobs run, faulted included.
  std::string degraded_reason_;
  /// Rings preallocated at creation; their fixed footprint is part of
  /// UsedBytesLocked (the budget covers observability too).
  SessionTelemetry telemetry_;
};

/// Ring capacities of every session's telemetry (fixed at creation; the
/// resulting SessionTelemetry::MemoryBytes is charged on the budget).
inline constexpr size_t kSessionAdaptSampleSlots = 64;
inline constexpr size_t kSessionFlightSlots = 128;

}  // namespace tasfar::serve

#endif  // TASFAR_SERVE_SESSION_H_
