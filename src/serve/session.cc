#include "serve/session.h"

#include <sstream>
#include <utility>

#include <cmath>
#include <limits>

#include "core/calibration_io.h"
#include "nn/serialize.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tasfar::serve {

namespace {

constexpr const char kSessionMagic[] = "TASFAR_SERVE_SESSION_V1";

obs::Counter* DegradedCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.session.degraded");
  return kCounter;
}

obs::Counter* AdaptCompletedCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.adapt.completed");
  return kCounter;
}

obs::Counter* BudgetRejectedCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.serve.budget.rejected");
  return kCounter;
}

/// Sessions-created counter of the chosen backend. One literal counter
/// per backend so the metric registry stays statically enumerable
/// (docs/OBSERVABILITY.md lists all three).
obs::Counter* BackendCounter(UncertaintyBackend backend) {
  static obs::Counter* const kMcDropout = obs::Registry::Get().GetCounter(
      "tasfar.serve.session.backend.mc_dropout");
  static obs::Counter* const kEnsemble = obs::Registry::Get().GetCounter(
      "tasfar.serve.session.backend.ensemble");
  static obs::Counter* const kLaplace = obs::Registry::Get().GetCounter(
      "tasfar.serve.session.backend.laplace");
  switch (backend) {
    case UncertaintyBackend::kDeepEnsemble: return kEnsemble;
    case UncertaintyBackend::kLastLayerLaplace: return kLaplace;
    case UncertaintyBackend::kMcDropout: break;
  }
  return kMcDropout;
}

/// The session's TasfarOptions: the server-wide options with the
/// session's own backend choice, so the adapt job's internal estimator
/// matches the serving estimator.
TasfarOptions WithBackend(TasfarOptions options, UncertaintyBackend backend) {
  options.uncertainty_backend = backend;
  return options;
}

SessionState ParseSessionState(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "created") return SessionState::kCreated;
  if (name == "accumulating") return SessionState::kAccumulating;
  if (name == "adapting") return SessionState::kAdapting;
  if (name == "adapted") return SessionState::kAdapted;
  if (name == "degraded") return SessionState::kDegraded;
  *ok = false;
  return SessionState::kCreated;
}

/// Reads a `<key> <nbytes>\n<raw block>` section. Returns false on a
/// malformed header or truncated block.
bool ReadBlock(std::istringstream* in, const std::string& expect_key,
               std::string* block) {
  std::string key;
  size_t nbytes = 0;
  *in >> key >> nbytes;
  if (!*in || key != expect_key) return false;
  in->get();  // The newline terminating the header line.
  block->resize(nbytes);
  in->read(block->data(), static_cast<std::streamsize>(nbytes));
  return in->gcount() == static_cast<std::streamsize>(nbytes);
}

}  // namespace

const char* SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kCreated: return "created";
    case SessionState::kAccumulating: return "accumulating";
    case SessionState::kAdapting: return "adapting";
    case SessionState::kAdapted: return "adapted";
    case SessionState::kDegraded: return "degraded";
  }
  return "unknown";
}

Session::Session(std::string user_id, const Sequential& source_model,
                 const SourceCalibration* calibration,
                 const TasfarOptions& options, const SessionConfig& config)
    : user_id_(std::move(user_id)),
      calibration_(calibration),
      options_(WithBackend(options, config.backend)),
      config_(config),
      param_count_(const_cast<Sequential&>(source_model).ParameterCount()),
      base_model_(source_model.CloneSequential()),
      telemetry_(kSessionAdaptSampleSlots, kSessionFlightSlots) {
  TASFAR_CHECK(calibration_ != nullptr);
  serving_model_ = base_model_->CloneSequential();
  ServeModelLocked(std::move(serving_model_), /*adapted=*/false);
  BackendCounter(config_.backend)->Increment();
  telemetry_.RecordFlight(
      FlightCode::kSessionCreated, obs::CurrentTraceContext().trace_id,
      std::string("backend=") + UncertaintyBackendName(config_.backend));
}

size_t Session::UsedBytesLocked() const {
  return BudgetBytes(rows_.size(), serving_adapted_,
                     density_map_.has_value() ? density_map_->NumCells() : 0);
}

size_t Session::BudgetBytes(size_t row_values, bool adapted,
                            size_t density_cells) const {
  size_t bytes = row_values * sizeof(double);
  if (adapted) bytes += param_count_ * sizeof(double);
  bytes += density_cells * sizeof(double);
  // Ensemble member replicas share the serving model's parameter buffers
  // (copy-on-write), but the budget charges each extra member at full
  // detached size — a conservative, stable bound that keeps admission
  // control independent of buffer-sharing internals (docs/SERVING.md
  // §Memory budget).
  if (config_.backend == UncertaintyBackend::kDeepEnsemble) {
    bytes += (options_.ensemble_members - 1) * param_count_ * sizeof(double);
  }
  // The telemetry rings are preallocated at creation; their constant
  // footprint is part of the session's budget, not free observability.
  bytes += telemetry_.MemoryBytes();
  return bytes;
}

void Session::ServeModelLocked(std::unique_ptr<Sequential> model,
                               bool adapted) {
  // Order matters: the estimator holds a raw pointer into the model it
  // wraps, so it must be torn down before the model it references.
  predictor_.reset();
  serving_model_ = std::move(model);
  EstimatorConfig estimator_config = EstimatorConfigFromOptions(options_);
  estimator_config.batch_size = SessionConfig::predict_batch;
  estimator_config.seed = config_.seed;
  predictor_ = MakeEstimator(serving_model_.get(), estimator_config);
  serving_adapted_ = adapted;
}

Status Session::SubmitRows(size_t rows, size_t cols, const double* data) {
  TASFAR_CHECK(data != nullptr || rows == 0);
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == SessionState::kAdapting) {
    return Status::FailedPrecondition(
        "an adapt job is in flight; submit again after it finishes");
  }
  if (cols != config_.input_dim) {
    return Status::InvalidArgument(
        "expected " + std::to_string(config_.input_dim) + " features, got " +
        std::to_string(cols));
  }
  if (rows == 0) {
    return Status::InvalidArgument("submit carries zero rows");
  }
  const size_t incoming = rows * cols * sizeof(double);
  if (UsedBytesLocked() + incoming > config_.budget_bytes) {
    BudgetRejectedCounter()->Increment();
    telemetry_.RecordFlight(FlightCode::kBudgetRejected,
                            obs::CurrentTraceContext().trace_id,
                            "submit of " + std::to_string(incoming) +
                                " bytes over budget");
    return Status::OutOfRange(
        "session budget exceeded: " + std::to_string(UsedBytesLocked()) +
        " + " + std::to_string(incoming) + " > " +
        std::to_string(config_.budget_bytes) + " bytes");
  }
  rows_.insert(rows_.end(), data, data + rows * cols);
  num_rows_ += rows;
  state_ = SessionState::kAccumulating;
  telemetry_.RecordFlight(FlightCode::kRowsSubmitted,
                          obs::CurrentTraceContext().trace_id,
                          "rows=" + std::to_string(rows));
  return Status::Ok();
}

Status Session::BeginAdapt() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != SessionState::kAccumulating) {
    return Status::FailedPrecondition(
        std::string("adapt requires an accumulating session, not ") +
        SessionStateName(state_));
  }
  // The adapted model detaches every parameter from the shared source
  // buffers; charge that future footprint now so a successful adapt
  // cannot overflow the budget after the fact.
  if (!serving_adapted_ &&
      UsedBytesLocked() + param_count_ * sizeof(double) >
          config_.budget_bytes) {
    BudgetRejectedCounter()->Increment();
    telemetry_.RecordFlight(FlightCode::kBudgetRejected,
                            obs::CurrentTraceContext().trace_id,
                            "adapted-model footprint over budget");
    return Status::OutOfRange(
        "session budget cannot hold the adapted model: " +
        std::to_string(UsedBytesLocked() + param_count_ * sizeof(double)) +
        " > " + std::to_string(config_.budget_bytes) + " bytes");
  }
  adapt_num_rows_ = num_rows_;
  state_ = SessionState::kAdapting;
  telemetry_.RecordFlight(FlightCode::kAdaptQueued,
                          obs::CurrentTraceContext().trace_id,
                          "rows=" + std::to_string(adapt_num_rows_));
  return Status::Ok();
}

void Session::AbortAdapt() {
  std::lock_guard<std::mutex> lock(mu_);
  TASFAR_CHECK(state_ == SessionState::kAdapting);
  state_ = SessionState::kAccumulating;
}

void Session::RunAdaptAndFinish(uint64_t adapt_seed) {
  TASFAR_TRACE_SPAN("serve.adapt_job");
  {
    std::lock_guard<std::mutex> lock(mu_);
    TASFAR_CHECK(state_ == SessionState::kAdapting);
    ++adapt_attempts_;
    telemetry_.RecordFlight(FlightCode::kAdaptStarted,
                            obs::CurrentTraceContext().trace_id,
                            "seed=" + std::to_string(adapt_seed));
  }
  // `rows_` is only appended by SubmitRows, which rejects while the state
  // is kAdapting, so the job reads it below without holding the lock.
  TasfarReport report;
  std::string fault;
  AdaptOutcome outcome = AdaptOutcome::kAdapted;
  if (TASFAR_FAILPOINT("serve.adapt_job")) {
    // Simulates the job dying mid-flight (OOM kill, poisoned batch that
    // tripped every guard, ...). The session must degrade, never hang.
    fault = "injected fault: serve.adapt_job";
    outcome = AdaptOutcome::kFault;
  } else {
    try {
      Tensor inputs(std::vector<size_t>{adapt_num_rows_, config_.input_dim},
                    std::vector<double>(rows_.begin(),
                                        rows_.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                adapt_num_rows_ *
                                                config_.input_dim)));
      Tasfar tasfar(options_);
      Rng rng(adapt_seed);
      report = tasfar.Adapt(base_model_.get(), *calibration_, inputs, &rng);
      if (report.fell_back) {
        fault = "adaptation fell back: " + report.fallback_reason;
        outcome = AdaptOutcome::kFellBack;
      } else if (report.skipped) {
        fault = "adaptation skipped: degenerate confident/uncertain split";
        outcome = AdaptOutcome::kSkipped;
      }
    } catch (const std::exception& e) {
      fault = std::string("adapt job threw: ") + e.what();
      outcome = AdaptOutcome::kFault;
    } catch (...) {
      fault = "adapt job threw a non-exception";
      outcome = AdaptOutcome::kFault;
    }
  }
  const uint64_t trace_id = obs::CurrentTraceContext().trace_id;
  std::lock_guard<std::mutex> lock(mu_);
  // Quality sample mirroring the process-global gauges: same formulas over
  // the same report, so InspectSession's final entry is bit-identical to
  // the in-process pipeline's metric values (asserted by the loopback
  // test at several thread counts).
  AdaptSample sample;
  sample.t_us = obs::MonotonicMicros();
  sample.adapt_run = adapt_attempts_;
  sample.outcome = static_cast<uint8_t>(outcome);
  const size_t split_total = report.num_confident + report.num_uncertain;
  sample.uncertain_ratio =
      split_total == 0 ? 0.0
                       : static_cast<double>(report.num_uncertain) /
                             static_cast<double>(split_total);
  double credibility_sum = 0.0;
  for (const PseudoLabel& pl : report.pseudo_labels) {
    credibility_sum += pl.credibility;
  }
  sample.mean_credibility =
      report.pseudo_labels.empty()
          ? 0.0
          : credibility_sum /
                static_cast<double>(report.pseudo_labels.size());
  sample.density_total_mass =
      report.density_map.has_value() ? report.density_map->TotalMass() : 0.0;
  sample.density_mean_sigma = report.density_mean_sigma;
  sample.final_loss = report.history.empty()
                          ? std::numeric_limits<double>::quiet_NaN()
                          : report.history.back().train_loss;
  sample.epochs = report.history.size();
  const size_t loss_tail =
      std::min(report.history.size(), kEpochLossSlots);
  sample.epoch_loss_count = static_cast<uint32_t>(loss_tail);
  for (size_t i = 0; i < loss_tail; ++i) {
    sample.epoch_losses[i] =
        report.history[report.history.size() - loss_tail + i].train_loss;
  }
  telemetry_.RecordAdapt(sample);
  if (!fault.empty()) {
    // Keep serving whatever model served before the job — the source
    // replica unless an earlier adapt succeeded. Never-worse-than-source.
    state_ = SessionState::kDegraded;
    degraded_reason_ = fault;
    DegradedCounter()->Increment();
    const FlightCode code = outcome == AdaptOutcome::kFellBack
                                ? FlightCode::kAdaptFellBack
                                : outcome == AdaptOutcome::kSkipped
                                      ? FlightCode::kAdaptSkipped
                                      : FlightCode::kAdaptFault;
    telemetry_.RecordFlight(code, trace_id, fault);
    telemetry_.RecordFlight(FlightCode::kSessionDegraded, trace_id, fault);
    // The degradation chain was silent before the flight recorder: dump
    // the ring to the log and retain the blob for InspectSession.
    TASFAR_LOG(kWarning) << "serve: session '" << user_id_ << "' (backend "
                         << UncertaintyBackendName(config_.backend)
                         << ") degraded: " << fault << "\n"
                         << telemetry_.DumpFlight(user_id_, fault);
    return;
  }
  ServeModelLocked(std::move(report.target_model), /*adapted=*/true);
  density_map_ = std::move(report.density_map);
  degraded_reason_.clear();
  state_ = SessionState::kAdapted;
  ++adapt_runs_;
  AdaptCompletedCounter()->Increment();
  telemetry_.RecordFlight(FlightCode::kAdaptCompleted, trace_id,
                          "run=" + std::to_string(adapt_runs_));
}

Result<ServedPrediction> Session::Predict(const Tensor& inputs) {
  TASFAR_TRACE_SPAN("serve.predict");
  if (inputs.rank() != 2 || inputs.dim(1) != config_.input_dim) {
    return Status::InvalidArgument(
        "predict expects {n, " + std::to_string(config_.input_dim) +
        "} inputs, got " + inputs.ShapeString());
  }
  std::lock_guard<std::mutex> lock(mu_);
  ServedPrediction out;
  out.from_adapted = serving_adapted_;
  if (obs::MetricsEnabled()) {
    const uint64_t t0 = obs::MonotonicMicros();
    out.predictions = predictor_->Predict(inputs);
    telemetry_.RecordPredictLatencyMs(
        static_cast<double>(obs::MonotonicMicros() - t0) / 1000.0);
  } else {
    out.predictions = predictor_->Predict(inputs);
  }
  return out;
}

SessionInfo Session::Info() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionInfo info;
  info.user_id = user_id_;
  info.state = state_;
  info.pending_rows = num_rows_;
  info.input_dim = config_.input_dim;
  info.budget_bytes = config_.budget_bytes;
  info.used_bytes = UsedBytesLocked();
  info.adapt_runs = adapt_runs_;
  info.serving_adapted = serving_adapted_;
  info.degraded_reason = degraded_reason_;
  info.backend = UncertaintyBackendName(config_.backend);
  return info;
}

std::string Session::SerializeState() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << kSessionMagic << "\n";
  out << "user " << user_id_ << "\n";
  // An in-flight job does not survive the file: its data does, so the
  // restored session can simply re-adapt.
  const SessionState persisted = state_ == SessionState::kAdapting
                                     ? SessionState::kAccumulating
                                     : state_;
  out << "state " << SessionStateName(persisted) << "\n";
  out << "input_dim " << config_.input_dim << "\n";
  out << "adapt_runs " << adapt_runs_ << "\n";
  const Tensor rows(std::vector<size_t>{num_rows_, config_.input_dim},
                    rows_);
  const std::string rows_text = SerializeMatrix(rows);
  out << "rows " << rows_text.size() << "\n" << rows_text;
  out << "adapted " << (serving_adapted_ ? 1 : 0) << "\n";
  if (serving_adapted_) {
    const std::string params = SerializeParams(serving_model_.get());
    out << "params " << params.size() << "\n" << params;
  }
  if (density_map_.has_value()) {
    const std::string map_text = SerializeDensityMap(*density_map_);
    out << "density " << map_text.size() << "\n" << map_text;
  } else {
    out << "density 0\n";
  }
  out << "reason " << degraded_reason_.size() << "\n" << degraded_reason_;
  out << "end\n";
  return out.str();
}

Status Session::RestoreState(const std::string& text) {
  if (TASFAR_FAILPOINT("serve.session_restore")) {
    return Status::IoError("injected fault: serve.session_restore");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != SessionState::kCreated) {
    return Status::FailedPrecondition(
        "restore requires a freshly created session");
  }
  std::istringstream in(text);
  std::string magic;
  in >> magic;
  if (magic != kSessionMagic) {
    return Status::InvalidArgument("bad session magic");
  }
  std::string key, user, state_name;
  in >> key >> user;
  if (!in || key != "user") {
    return Status::InvalidArgument("missing user line");
  }
  if (user != user_id_) {
    // Restoring one user's data into another tenant's session is a
    // cross-tenant leak; re-homing a blob means creating a session under
    // its original id.
    return Status::InvalidArgument("blob belongs to user '" + user +
                                   "', not '" + user_id_ + "'");
  }
  in >> key >> state_name;
  bool state_ok = false;
  const SessionState restored = ParseSessionState(state_name, &state_ok);
  if (!in || key != "state" || !state_ok) {
    return Status::InvalidArgument("missing or bad state line");
  }
  if (restored == SessionState::kAdapting) {
    // SerializeState never writes kAdapting (in-flight jobs persist as
    // accumulating), so this is a crafted blob — and committing it would
    // wedge the session forever: submits and adapts reject while
    // kAdapting and no job exists to ever finish it.
    return Status::InvalidArgument(
        "blob carries state 'adapting', which no save produces");
  }
  size_t input_dim = 0;
  in >> key >> input_dim;
  if (!in || key != "input_dim" || input_dim != config_.input_dim) {
    return Status::InvalidArgument("input_dim mismatch or missing");
  }
  uint64_t adapt_runs = 0;
  in >> key >> adapt_runs;
  if (!in || key != "adapt_runs") {
    return Status::InvalidArgument("missing adapt_runs line");
  }
  std::string rows_text;
  if (!ReadBlock(&in, "rows", &rows_text)) {
    return Status::InvalidArgument("missing or truncated rows block");
  }
  Result<Tensor> rows = DeserializeMatrix(rows_text);
  if (!rows.ok()) return rows.status();
  if (rows.value().dim(0) != 0 && rows.value().dim(1) != config_.input_dim) {
    return Status::InvalidArgument("restored rows have wrong width");
  }
  int adapted = 0;
  in >> key >> adapted;
  if (!in || key != "adapted" || (adapted != 0 && adapted != 1)) {
    return Status::InvalidArgument("missing or bad adapted line");
  }
  if (restored == SessionState::kAdapted && adapted != 1) {
    return Status::InvalidArgument(
        "state 'adapted' without adapted parameters");
  }
  std::unique_ptr<Sequential> restored_model;
  if (adapted == 1) {
    std::string params;
    if (!ReadBlock(&in, "params", &params)) {
      return Status::InvalidArgument("missing or truncated params block");
    }
    restored_model = base_model_->CloneSequential();
    TASFAR_RETURN_IF_ERROR(
        DeserializeParams(restored_model.get(), params));
  }
  std::string map_text;
  if (!ReadBlock(&in, "density", &map_text)) {
    return Status::InvalidArgument("missing or truncated density block");
  }
  std::optional<DensityMap> restored_map;
  if (!map_text.empty()) {
    Result<DensityMap> map = DeserializeDensityMap(map_text);
    if (!map.ok()) return map.status();
    restored_map = std::move(map.value());
  }
  std::string reason;
  if (!ReadBlock(&in, "reason", &reason)) {
    return Status::InvalidArgument("missing or truncated reason block");
  }
  in >> key;
  if (!in || key != "end") {
    return Status::InvalidArgument("missing end marker");
  }
  // The blob's footprint counts against this session's budget exactly as
  // if it had arrived via SubmitRows/BeginAdapt — restore must not be a
  // side door past admission control.
  const size_t restored_bytes = BudgetBytes(
      rows.value().size(), restored_model != nullptr,
      restored_map.has_value() ? restored_map->NumCells() : 0);
  if (restored_bytes > config_.budget_bytes) {
    BudgetRejectedCounter()->Increment();
    telemetry_.RecordFlight(FlightCode::kBudgetRejected,
                            obs::CurrentTraceContext().trace_id,
                            "restored blob over budget");
    return Status::OutOfRange(
        "restored session exceeds budget: " + std::to_string(restored_bytes) +
        " > " + std::to_string(config_.budget_bytes) + " bytes");
  }

  // All parsed and validated — commit (restore is transactional: any
  // error above leaves the fresh session untouched).
  const double* data = rows.value().data();
  rows_.assign(data, data + rows.value().size());
  num_rows_ = rows.value().dim(0);
  adapt_runs_ = adapt_runs;
  density_map_ = std::move(restored_map);
  degraded_reason_ = reason;
  if (restored_model != nullptr) {
    ServeModelLocked(std::move(restored_model), /*adapted=*/true);
  }
  state_ = restored == SessionState::kCreated && num_rows_ > 0
               ? SessionState::kAccumulating
               : restored;
  telemetry_.RecordFlight(FlightCode::kSessionRestored,
                          obs::CurrentTraceContext().trace_id,
                          "rows=" + std::to_string(num_rows_));
  return Status::Ok();
}

TelemetrySnapshot Session::Telemetry() const {
  std::lock_guard<std::mutex> lock(mu_);
  return telemetry_.Snapshot();
}

}  // namespace tasfar::serve
