#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "checks.h"
#include "core/tasfar.h"
#include "data/crowd_sim.h"
#include "data/dataset.h"
#include "data/housing_sim.h"
#include "data/pdr_sim.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/demo.h"
#include "serve/server.h"
#include "spans.h"
#include "tensor/simd/dispatch.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace bench {

using tasfar::Adam;
using tasfar::BatchedForward;
using tasfar::Dataset;
using tasfar::EstimatorConfig;
using tasfar::EstimatorConfigFromOptions;
using tasfar::McPrediction;
using tasfar::MixSeed;
using tasfar::Rng;
using tasfar::Sequential;
using tasfar::SourceCalibration;
using tasfar::Tasfar;
using tasfar::TasfarOptions;
using tasfar::TasfarReport;
using tasfar::Tensor;
using tasfar::UncertaintyBackend;
using tasfar::UncertaintyEstimator;
namespace obs = tasfar::obs;
namespace serve = tasfar::serve;

namespace {

// ---------------------------------------------------------------------------
// Workload sizes. Each operation's work is fixed by these constants (not by
// the seed), so the seed changes the inputs but not the amount of work.
// ---------------------------------------------------------------------------

/// Set-up runs this many times per run; setup_s is the median. The
/// served set-up is short, so it repeats more to steady its median.
constexpr int kInProcessSetupRepeats = 3;
constexpr int kServeSetupRepeats = 7;

// adapt_pdr: two seen users and one unseen user, 20-window trajectories.
constexpr size_t kPdrSeenUsers = 2;
constexpr size_t kPdrUnseenUsers = 1;
constexpr size_t kPdrStepsPerTrajectory = 20;
constexpr size_t kPdrSourceStepsPerUser = 200;
constexpr size_t kPdrSourceEpochs = 6;
constexpr size_t kPdrAdaptEpochs = 10;

// adapt_crowd: three Part-B scenes of 16x16 images.
constexpr size_t kCrowdImageSize = 16;
constexpr size_t kCrowdPartAImages = 160;
constexpr size_t kCrowdAdaptImagesPerScene = 24;
constexpr size_t kCrowdTestImagesPerScene = 24;
constexpr size_t kCrowdSourceEpochs = 4;
constexpr size_t kCrowdAdaptEpochs = 10;

// serve_*: the housing demo bundle's recipe (serve/demo.cc).
constexpr size_t kHousingSourceRows = 2000;
constexpr size_t kHousingTargetRows = 400;
constexpr size_t kHousingEpochs = 12;
constexpr size_t kServeAdaptEpochs = 30;
constexpr uint32_t kFeatures = tasfar::kNumHousingFeatures;
/// One client's Predict mix, mostly small batches and some large ones:
/// small = the 8-row request of the repository's serving benchmark
/// (bench/bench_serve.cc), large = a tenant scoring the demo bundle's whole
/// coastal target set (kHousingTargetRows) in one call, one call in ten.
constexpr uint32_t kSmallBatch = 8;
constexpr uint32_t kLargeBatch = kHousingTargetRows;
constexpr size_t kCallsPerLargeCall = 10;
/// A cycle sends the mix once per backend, rotating sessions so the large
/// batch reaches every backend once per cycle.
constexpr size_t kCycleReps = 3;
/// serve_predict: Predict cycles per client before each round's tenant
/// lifecycles, so Predicts take most of the round.
constexpr size_t kPredictCyclesPerRound = 10;
/// Tenant rows, a quarter drawn confident and the rest uncertain under the
/// tenant's backend, so neither side of its confidence split is empty.
constexpr uint32_t kTenantRows = 160;
constexpr uint32_t kTenantChunkRows = 40;
constexpr uint32_t kTenantPredictRows = 8;
/// Seed of inputs that must not vary with --seed.
constexpr uint64_t kFixedInputSeed = 1;
constexpr auto kPollInterval = std::chrono::microseconds(1000);
/// Every 63rd call of a resident session, up to kSamplesPerResident of
/// them, is compared byte for byte with an in-process estimator at the same
/// call index. 63 is prime to the 10 calls a resident gets per cycle, so
/// the samples reach every batch of the mix, the large one included; the
/// cap keeps the kept responses from growing with the run.
constexpr uint64_t kSampleEvery = 63;
constexpr uint64_t kSamplesPerResident = 32;

constexpr std::array<UncertaintyBackend, 3> kBackends = {
    UncertaintyBackend::kMcDropout, UncertaintyBackend::kDeepEnsemble,
    UncertaintyBackend::kLastLayerLaplace};
/// Backends (indices into kBackends) of a writer's tenants, in round
/// order. mc_dropout twice keeps the median adaptation inside one
/// backend's times instead of between two backends'. serve_adapt leaves
/// out the laplace tenant, whose adaptation always degrades (README): its
/// reader runs free, so a failure there would not be a fixed share of the
/// run's operations.
constexpr std::array<size_t, 4> kPredictTenantBackends = {0, 1, 2, 0};
constexpr std::array<size_t, 3> kAdaptTenantBackends = {0, 1, 0};

// ---------------------------------------------------------------------------
// Per-layer metrics of the traced run (BENCHMARK.json "per_layer").
// ---------------------------------------------------------------------------

struct LayerSpec {
  const char* name;
  const char* unit;
};
constexpr LayerSpec kLayerMetrics[] = {
    {"data.simulate_ms", "ms"},
    {"nn.source_train_ms", "ms"},
    {"nn.fine_tune.gflop_per_s", "GFLOP/s"},
    {"uncertainty.calibrate_predict_ms", "ms"},
    {"uncertainty.adapt_predict_ms", "ms"},
    {"uncertainty.forward_passes", "count"},
    {"uncertainty.predict_p50_ms", "ms"},
    {"uncertainty.predict_p99_ms", "ms"},
    {"core.calibrate_ms", "ms"},
    {"core.partition_ms", "ms"},
    {"core.density_map_ms", "ms"},
    {"core.pseudo_label_ms", "ms"},
    {"core.density_map.cells", "count"},
    {"core.uncertain_rows", "count"},
    {"core.pseudo_label.useful_ratio", "ratio"},
    {"core.fine_tune_ms", "ms"},
    {"core.fine_tune.epochs", "count"},
    {"core.fine_tune.us_per_sample_step", "us"},
    {"core.adapt.stage_coverage_min", "ratio"},
    {"serve.predict.server_ms.mc_dropout", "ms"},
    {"serve.predict.server_ms.ensemble", "ms"},
    {"serve.predict.server_ms.laplace", "ms"},
    {"serve.predict.p50_ms", "ms"},
    {"serve.predict.p99_ms", "ms"},
    {"serve.predict.wait_ms", "ms"},
    {"serve.predict.small_wait_p99_ms", "ms"},
    {"serve.predict.large_server_ms", "ms"},
    {"serve.adapt.queue_wait_ms", "ms"},
    {"serve.adapt.job_ms", "ms"},
    {"serve.adapt.poll_lag_ms", "ms"},
    {"serve.submit_ms", "ms"},
    {"serve.session_ops_ms", "ms"},
    {"trace.dropped_events", "count"},
};


// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Process CPU time (every thread: caller, server, pool workers), s.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One caller's Predict calls, summed up one round at a time so that the
/// benchmark's own memory does not grow with the run. Each round gives the
/// process CPU time per answered row and the p50 and p99 of the round's
/// wall-clock latencies. Traced runs also keep every latency.
class PredictLog {
 public:
  explicit PredictLog(bool keep_all) : keep_all_(keep_all) {}
  void Add(double wall_s, double cpu_s, double rows) {
    round_latency_s_.push_back(wall_s);
    round_cpu_s_ += cpu_s;
    round_rows_ += rows;
    if (keep_all_) all_latency_s_.push_back(wall_s);
  }
  void EndRound() {
    if (round_latency_s_.empty()) return;
    cpu_us_per_row_.push_back(round_cpu_s_ * 1e6 / round_rows_);
    p50_ms_.push_back(Quantile(round_latency_s_, 0.5) * 1e3);
    p99_ms_.push_back(Quantile(round_latency_s_, 0.99) * 1e3);
    round_latency_s_.clear();
    round_cpu_s_ = round_rows_ = 0.0;
  }
  const std::vector<double>& cpu_us_per_row() const { return cpu_us_per_row_; }
  const std::vector<double>& p50_ms() const { return p50_ms_; }
  const std::vector<double>& p99_ms() const { return p99_ms_; }
  const std::vector<double>& all_latency_s() const { return all_latency_s_; }

 private:
  bool keep_all_;
  std::vector<double> round_latency_s_;
  double round_cpu_s_ = 0.0, round_rows_ = 0.0;
  std::vector<double> cpu_us_per_row_, p50_ms_, p99_ms_, all_latency_s_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Installs a fresh program trace id around one operation in traced runs,
/// so the program's own spans for the call can be matched to it.
class TraceScope {
 public:
  explicit TraceScope(bool enabled) : id_(enabled ? obs::NewTraceId() : 0) {
    if (enabled) ctx_.emplace(obs::TraceContext{id_, 0});
  }
  uint64_t id() const { return id_; }

 private:
  uint64_t id_;
  std::optional<obs::ScopedTraceContext> ctx_;
};

/// The program's own spans in a traced run, summed (ms) per trace id and
/// span name: the stages inside Tasfar::Adapt and the server's handling of
/// each request. Drain() empties the program's bounded trace buffer into
/// the sums; call it between operations, when no span is open.
class ProgramSpans {
 public:
  void Drain() {
    static const std::set<std::string> kNames = {
        "mc_dropout.predict", "ensemble.predict", "laplace.predict",
        "partition",          "density_map",      "pseudo_label",
        "fine_tune",          "serve.request"};
    for (const obs::TraceEvent& e : obs::SnapshotTraceEvents()) {
      if (e.trace_id != 0 && kNames.count(e.name) != 0) {
        ms_[e.trace_id][e.name] += static_cast<double>(e.dur_us) / 1000.0;
      }
    }
    obs::ClearTraceEvents();
  }
  /// Summed duration of `name` under trace `id`; 0 when absent.
  double Ms(uint64_t id, const char* name) const {
    const auto it = ms_.find(id);
    if (it == ms_.end()) return 0.0;
    const auto span = it->second.find(name);
    return span == it->second.end() ? 0.0 : span->second;
  }

 private:
  std::unordered_map<uint64_t, std::map<std::string, double>> ms_;
};

/// Forward multiply-adds per sample, computed from the layer shapes named
/// by Layer::Name() (Sequential[...], MultiColumn{... | ...}, Dense(a->b),
/// Conv1d(i->o,k=,s=,p=,d=), Conv2d(i->o,k=,s=,p=), pooling, reshapes).
class MacCounter {
 public:
  struct Shape {
    size_t c = 1, h = 1, w = 1;
    size_t size() const { return c * h * w; }
  };

  static double ForwardMacs(const std::string& name, Shape input) {
    MacCounter counter(name);
    return counter.Layer(&input);
  }

 private:
  explicit MacCounter(const std::string& s) : s_(s) {}

  bool Eat(const std::string& tok) {
    if (s_.compare(pos_, tok.size(), tok) != 0) return false;
    pos_ += tok.size();
    return true;
  }
  size_t Number() {
    size_t v = 0;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      v = v * 10 + static_cast<size_t>(s_[pos_++] - '0');
    }
    return v;
  }
  size_t Field(const std::string& key) {
    Eat(",");
    Eat(key);
    return Number();
  }
  void SkipArgs() {
    if (pos_ < s_.size() && s_[pos_] == '(') {
      while (pos_ < s_.size() && s_[pos_] != ')') ++pos_;
      ++pos_;
    }
  }

  double Layer(Shape* x) {
    if (Eat("Sequential[")) {
      double macs = 0.0;
      do {
        macs += Layer(x);
      } while (Eat(", "));
      Eat("]");
      return macs;
    }
    if (Eat("MultiColumn{")) {
      const Shape in = *x;
      size_t features = 0;
      double macs = 0.0;
      do {
        Shape branch = in;
        macs += Layer(&branch);
        features += branch.size();
      } while (Eat(" | "));
      Eat("}");
      *x = Shape{features, 1, 1};
      return macs;
    }
    if (Eat("Dense(")) {
      const size_t in = Number();
      Eat("->");
      const size_t out = Number();
      Eat(")");
      *x = Shape{out, 1, 1};
      return static_cast<double>(in * out);
    }
    if (Eat("Conv1d(")) {
      const size_t in = Number();
      Eat("->");
      const size_t out = Number();
      const size_t k = Field("k="), s = Field("s="), p = Field("p="),
                   d = Field("d=");
      Eat(")");
      const size_t len = (x->h + 2 * p - d * (k - 1) - 1) / s + 1;
      *x = Shape{out, len, 1};
      return static_cast<double>(out * in * k * len);
    }
    if (Eat("Conv2d(")) {
      const size_t in = Number();
      Eat("->");
      const size_t out = Number();
      const size_t k = Field("k="), s = Field("s="), p = Field("p=");
      Eat(")");
      const size_t h = (x->h + 2 * p - k) / s + 1;
      const size_t w = (x->w + 2 * p - k) / s + 1;
      *x = Shape{out, h, w};
      return static_cast<double>(out * in * k * k * h * w);
    }
    if (Eat("MaxPool2d(") || Eat("AvgPool2d(")) {
      const size_t win = Number();
      Eat(")");
      *x = Shape{x->c, x->h / win, x->w / win};
      return 0.0;
    }
    if (Eat("GlobalAvgPool2d")) {
      *x = Shape{x->c, 1, 1};
      return 0.0;
    }
    if (Eat("Flatten")) {
      *x = Shape{x->size(), 1, 1};
      return 0.0;
    }
    // Element-wise layers (activations, dropout) keep the shape.
    while (pos_ < s_.size() && std::isalnum(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    SkipArgs();
    return 0.0;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

/// Forward + backward (activation and weight gradients) as 3x the forward
/// multiply-adds, two floating-point operations each.
double TrainFlopsPerSampleStep(Sequential* model, MacCounter::Shape input) {
  return 6.0 * MacCounter::ForwardMacs(model->Name(), input);
}

void TrainSource(Sequential* model, const Tensor& x, const Tensor& y,
                 size_t epochs, Rng* rng) {
  Adam optimizer(1e-3);
  tasfar::Trainer trainer(model, &optimizer,
                          [](const Tensor& p, const Tensor& t, Tensor* g,
                             const std::vector<double>* w) {
                            return tasfar::loss::Mse(p, t, g, w);
                          });
  tasfar::TrainConfig tc;
  tc.epochs = epochs;
  trainer.Fit(x, y, tc, rng);
}

bool FinitePrediction(const McPrediction& p) {
  for (size_t d = 0; d < p.mean.size(); ++d) {
    if (!std::isfinite(p.mean[d]) || !std::isfinite(p.std[d]) ||
        p.std[d] < 0.0) {
      return false;
    }
  }
  return !p.mean.empty() && p.mean.size() == p.std.size();
}

/// Source-side calibration split into the uncertainty module's estimator
/// passes and the core module's τ / Q_s fit, each under its own span.
SourceCalibration Calibrate(Sequential* model, const TasfarOptions& options,
                            const Tensor& x, const Tensor& y,
                            std::map<std::string, double>* layer_ms,
                            std::vector<double>* uncertainties) {
  std::vector<McPrediction> preds;
  {
    Span span("uncertainty.calibrate_predict");
    preds = tasfar::MakeEstimator(model, EstimatorConfigFromOptions(options))
                ->Predict(x);
    (*layer_ms)["uncertainty.calibrate_predict_ms"] += span.Elapsed() * 1e3;
  }
  SourceCalibration calibration;
  {
    Span span("core.calibrate");
    calibration = Tasfar(options).CalibrateFromPredictions(preds, y);
    (*layer_ms)["core.calibrate_ms"] += span.Elapsed() * 1e3;
  }
  uncertainties->clear();
  for (const McPrediction& p : preds) {
    if (FinitePrediction(p)) uncertainties->push_back(p.ScalarUncertainty());
  }
  return calibration;
}

/// Collects the first few check failures of a run.
class CheckLog {
 public:
  void Add(const std::string& why) {
    if (why.empty()) return;
    ++failures_;
    if (first_.size() < 5) first_.push_back(why);
  }
  void MergeInto(RunOutcome* out) const {
    if (failures_ > 0) out->correct = false;
    for (const std::string& s : first_) out->check_failures.push_back(s);
  }
  void MergeInto(CheckLog* other) const {
    other->failures_ += failures_;
    for (const std::string& s : first_) {
      if (other->first_.size() < 5) other->first_.push_back(s);
    }
  }

 private:
  size_t failures_ = 0;
  std::vector<std::string> first_;
};

/// End-to-end metrics of a run. Each is a median over many operations or
/// rounds, so a few seconds of a slowed host move it less.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> adapt_s;
  /// Per round: rows of its successful adaptations ÷ their time.
  std::vector<double> adapt_rows_per_s;
  /// Per round: process CPU time in Predict calls ÷ rows answered.
  std::vector<double> predict_cpu_us_per_row;

  std::vector<Metric> Metrics() const {
    return {
        {"setup_s", Median(setup_s), "s"},
        {"adapt_s", Median(adapt_s), "s"},
        {"adapt_rows_per_s", Median(adapt_rows_per_s), "rows/s"},
        {"predict_cpu_us_per_row", Median(predict_cpu_us_per_row), "us/row"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  }
};

/// Takes the caller's Predict rounds into the run's metrics. Wall-clock
/// latency follows the host's CPU steal (README), so it is not gated: the
/// medians over rounds go to stderr, and traced runs report the p50 and
/// p99 over all calls as per-layer metrics under `layer_prefix`.
void PredictMetrics(const PredictLog& log, bool trace,
                    const std::string& layer_prefix, EndToEnd* e2e,
                    std::map<std::string, double>* layer, RunOutcome* out) {
  e2e->predict_cpu_us_per_row.insert(e2e->predict_cpu_us_per_row.end(),
                                     log.cpu_us_per_row().begin(),
                                     log.cpu_us_per_row().end());
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "predict wall-clock latency, median over rounds: p50 %.4g ms, "
                "p99 %.4g ms",
                Median(log.p50_ms()), Median(log.p99_ms()));
  out->notes.push_back(buf);
  if (trace) {
    (*layer)[layer_prefix + "p50_ms"] = Quantile(log.all_latency_s(), 0.5) * 1e3;
    (*layer)[layer_prefix + "p99_ms"] = Quantile(log.all_latency_s(), 0.99) * 1e3;
  }
}

/// Fills the run's metrics and check verdict. An untraced run reports the
/// end-to-end metrics. A traced run reports the per-layer ones — set-up
/// layers as the median over the set-ups, the rest from `layer` — and
/// notes its end-to-end values, whose gap to an untraced run is the
/// tracing overhead.
void Finish(const RunOptions& opt, const EndToEnd& e2e,
            const std::vector<std::map<std::string, double>>& setup_layers,
            std::map<std::string, double> layer, const CheckLog& checks,
            RunOutcome* out) {
  checks.MergeInto(out);
  if (!opt.trace) {
    out->metrics = e2e.Metrics();
    return;
  }
  for (const LayerSpec& spec : kLayerMetrics) {
    std::vector<double> v;
    for (const auto& setup : setup_layers) {
      const auto it = setup.find(spec.name);
      if (it != setup.end()) v.push_back(it->second);
    }
    if (!v.empty()) layer[spec.name] = Median(v);
  }
  layer["trace.dropped_events"] =
      static_cast<double>(obs::DroppedTraceEvents());
  for (const LayerSpec& spec : kLayerMetrics) {
    const auto it = layer.find(spec.name);
    out->metrics.push_back(
        {spec.name, it == layer.end() ? 0.0 : it->second, spec.unit});
  }
  for (const Metric& m : e2e.Metrics()) {
    out->notes.push_back("traced " + m.name + " " + std::to_string(m.value));
  }
}

std::string Format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

std::string SetupNote(const std::vector<double>& setup_s) {
  std::string note = "setup runs (s):";
  for (double v : setup_s) note += Format(" %.3f", v, 0.0);
  return note;
}

// ---------------------------------------------------------------------------
// In-process workloads: adapt_pdr and adapt_crowd.
// ---------------------------------------------------------------------------

/// One target domain: a pedestrian or a street scene.
struct AdaptTask {
  std::string name;
  Tensor adapt_inputs;
  /// Every labelled row of the domain; predicted one row per call after
  /// the adaptation, and scored before/after for the labelled error.
  Tensor eval_inputs;
  Tensor eval_targets;
  uint64_t adapt_seed = 0;
};

struct InProcessSetup {
  std::unique_ptr<Sequential> model;
  TasfarOptions options;
  SourceCalibration calibration;
  std::vector<double> calibration_uncertainties;
  std::vector<AdaptTask> tasks;
  MacCounter::Shape sample_shape;
  /// Crowd models regress log1p(count); errors are reported in counts.
  bool log_counts = false;
  std::map<std::string, double> layer_ms;
};

Dataset PoolTrajectories(const std::vector<tasfar::PdrTrajectory>& trajs) {
  std::vector<Dataset> parts;
  for (const tasfar::PdrTrajectory& t : trajs) parts.push_back(t.steps);
  return tasfar::Concat(parts);
}

InProcessSetup SetupPdr(uint64_t seed) {
  InProcessSetup w;
  tasfar::PdrSimConfig cfg;
  cfg.num_seen_users = kPdrSeenUsers;
  cfg.num_unseen_users = kPdrUnseenUsers;
  cfg.source_steps_per_user = kPdrSourceStepsPerUser;
  cfg.steps_per_trajectory = kPdrStepsPerTrajectory;
  Dataset source;
  std::vector<tasfar::PdrUserData> users;
  {
    Span span("data.simulate");
    tasfar::PdrSimulator sim(cfg, seed);
    source = sim.GenerateSourceDataset();
    users = sim.GenerateTargetUsers();
    w.layer_ms["data.simulate_ms"] = span.Elapsed() * 1e3;
  }
  Rng rng(MixSeed(seed, 1));
  tasfar::SplitResult split =
      tasfar::SplitFraction(source, 0.75, /*shuffle=*/true, &rng);
  w.model = tasfar::BuildPdrModel(cfg.window_len, &rng);
  {
    Span span("nn.source_train");
    TrainSource(w.model.get(), split.first.inputs, split.first.targets,
                kPdrSourceEpochs, &rng);
    w.layer_ms["nn.source_train_ms"] = span.Elapsed() * 1e3;
  }
  w.options.adaptation.train.epochs = kPdrAdaptEpochs;
  w.calibration = Calibrate(w.model.get(), w.options, split.second.inputs,
                            split.second.targets, &w.layer_ms,
                            &w.calibration_uncertainties);
  for (size_t u = 0; u < users.size(); ++u) {
    AdaptTask task;
    task.name = std::string(users[u].profile.seen ? "seen_user_"
                                                   : "unseen_user_") +
                std::to_string(users[u].profile.id);
    task.adapt_inputs = PoolTrajectories(users[u].adaptation).inputs;
    std::vector<tasfar::PdrTrajectory> all = users[u].adaptation;
    all.insert(all.end(), users[u].test.begin(), users[u].test.end());
    const Dataset eval = PoolTrajectories(all);
    task.eval_inputs = eval.inputs;
    task.eval_targets = eval.targets;
    task.adapt_seed = MixSeed(seed, 100 + u);
    w.tasks.push_back(std::move(task));
  }
  w.sample_shape = {6, cfg.window_len, 1};
  return w;
}

InProcessSetup SetupCrowd(uint64_t seed) {
  InProcessSetup w;
  tasfar::CrowdSimConfig cfg;
  cfg.image_size = kCrowdImageSize;
  cfg.part_a_images = kCrowdPartAImages;
  cfg.part_b_images =
      cfg.num_scenes_b * (kCrowdAdaptImagesPerScene + kCrowdTestImagesPerScene);
  Dataset part_a, part_b;
  {
    Span span("data.simulate");
    tasfar::CrowdSimulator sim(cfg, seed);
    part_a = sim.GeneratePartA();
    part_b = sim.GeneratePartB();
    w.layer_ms["data.simulate_ms"] = span.Elapsed() * 1e3;
  }
  part_a.targets.MapInPlace([](double y) { return std::log1p(y); });
  Rng rng(MixSeed(seed, 2));
  tasfar::SplitResult split =
      tasfar::SplitFraction(part_a, 0.75, /*shuffle=*/true, &rng);
  w.model = tasfar::BuildCrowdModel(cfg.image_size, &rng);
  {
    Span span("nn.source_train");
    TrainSource(w.model.get(), split.first.inputs, split.first.targets,
                kCrowdSourceEpochs, &rng);
    w.layer_ms["nn.source_train_ms"] = span.Elapsed() * 1e3;
  }
  w.options.adaptation.train.epochs = kCrowdAdaptEpochs;
  w.calibration = Calibrate(w.model.get(), w.options, split.second.inputs,
                            split.second.targets, &w.layer_ms,
                            &w.calibration_uncertainties);
  for (int scene : tasfar::DistinctGroups(part_b)) {
    const Dataset data = tasfar::FilterByGroup(part_b, scene);
    std::vector<size_t> first(kCrowdAdaptImagesPerScene);
    for (size_t i = 0; i < first.size(); ++i) first[i] = i;
    AdaptTask task;
    task.name = "scene_" + std::to_string(scene);
    task.adapt_inputs = tasfar::Subset(data, first).inputs;
    task.eval_inputs = data.inputs;
    task.eval_targets = data.targets;
    task.adapt_seed = MixSeed(seed, 200 + static_cast<uint64_t>(scene));
    w.tasks.push_back(std::move(task));
  }
  w.sample_shape = {1, cfg.image_size, cfg.image_size};
  w.log_counts = true;
  return w;
}

/// Mean per-row L2 error against the labels, in label units.
double LabelledError(Sequential* model, const AdaptTask& task,
                     bool log_counts) {
  const Tensor pred = BatchedForward(model, task.eval_inputs);
  const size_t n = pred.dim(0), dims = pred.dim(1);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double sq = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      double v = pred.At(i, d);
      if (log_counts) v = std::max(0.0, std::expm1(v));
      const double e = v - task.eval_targets.At(i, d);
      sq += e * e;
    }
    sum += std::sqrt(sq);
  }
  return sum / static_cast<double>(n);
}

/// What the traced run keeps of one Adapt.
struct AdaptTraceRecord {
  uint64_t op_id = 0;
  double wall_ms = 0.0;
  double cells = 0.0;
  double uncertain = 0.0;
  double useful = 0.0;
  double epochs = 0.0;
  double sample_steps = 0.0;
  double forward_passes = 0.0;
  double flops_per_step = 0.0;
};

/// Per-layer adapt metrics from the traced Adapts and the program's spans.
void AdaptLayerMetrics(const std::vector<AdaptTraceRecord>& records,
                       const ProgramSpans& spans,
                       std::map<std::string, double>* layer) {
  if (records.empty()) return;
  double predict = 0, partition = 0, density = 0, pseudo = 0, fine = 0;
  double cells = 0, uncertain = 0, useful = 0, epochs = 0, steps = 0;
  double passes = 0, flops = 0, coverage_min = 1e300;
  for (const AdaptTraceRecord& r : records) {
    const auto get = [&](const char* name) { return spans.Ms(r.op_id, name); };
    const double p = get("mc_dropout.predict") + get("ensemble.predict") +
                     get("laplace.predict");
    const double total = p + get("partition") + get("density_map") +
                         get("pseudo_label") + get("fine_tune");
    predict += p;
    partition += get("partition");
    density += get("density_map");
    pseudo += get("pseudo_label");
    fine += get("fine_tune");
    cells += r.cells;
    uncertain += r.uncertain;
    useful += r.useful;
    epochs += r.epochs;
    steps += r.sample_steps;
    passes += r.forward_passes;
    flops += r.flops_per_step * r.sample_steps;
    coverage_min = std::min(coverage_min, total / r.wall_ms);
  }
  const double n = static_cast<double>(records.size());
  (*layer)["uncertainty.adapt_predict_ms"] = predict / n;
  (*layer)["uncertainty.forward_passes"] = passes / n;
  (*layer)["core.partition_ms"] = partition / n;
  (*layer)["core.density_map_ms"] = density / n;
  (*layer)["core.pseudo_label_ms"] = pseudo / n;
  (*layer)["core.fine_tune_ms"] = fine / n;
  (*layer)["core.density_map.cells"] = cells / n;
  (*layer)["core.uncertain_rows"] = uncertain / n;
  (*layer)["core.pseudo_label.useful_ratio"] =
      uncertain > 0 ? useful / uncertain : 0.0;
  (*layer)["core.fine_tune.epochs"] = epochs / n;
  (*layer)["core.fine_tune.us_per_sample_step"] =
      steps > 0 ? fine * 1e3 / steps : 0.0;
  (*layer)["nn.fine_tune.gflop_per_s"] =
      fine > 0 ? flops / (fine * 1e-3) / 1e9 : 0.0;
  (*layer)["core.adapt.stage_coverage_min"] = coverage_min;
}

AdaptTraceRecord RecordAdapt(const TasfarReport& report, uint64_t op_id,
                             double wall_s, double passes,
                             double flops_per_step) {
  AdaptTraceRecord r;
  r.op_id = op_id;
  r.wall_ms = wall_s * 1e3;
  r.cells = report.density_map.has_value()
                ? static_cast<double>(report.density_map->NumCells())
                : 0.0;
  r.uncertain = static_cast<double>(report.num_uncertain);
  for (const tasfar::PseudoLabel& l : report.pseudo_labels) {
    if (l.credibility > 0.0) r.useful += 1.0;
  }
  r.epochs = static_cast<double>(report.history.size());
  r.sample_steps =
      r.epochs * static_cast<double>(report.num_uncertain + report.num_confident);
  r.forward_passes = passes;
  r.flops_per_step = flops_per_step;
  return r;
}

RunOutcome RunInProcess(const RunOptions& opt,
                        InProcessSetup (*setup_fn)(uint64_t)) {
  RunOutcome out;
  EndToEnd e2e;
  CheckLog checks;
  std::unique_ptr<InProcessSetup> w;
  std::vector<std::map<std::string, double>> setup_layers;
  for (int r = 0; r < kInProcessSetupRepeats; ++r) {
    w.reset();
    const double t0 = NowSeconds();
    w = std::make_unique<InProcessSetup>(setup_fn(opt.seed));
    // Warm-up: one estimator call fills the workspace arenas and starts
    // the thread pool before anything is timed.
    tasfar::MakeEstimator(w->model.get(), EstimatorConfigFromOptions(w->options))
        ->Predict(w->tasks.front().adapt_inputs);
    e2e.setup_s.push_back(NowSeconds() - t0);
    setup_layers.push_back(w->layer_ms);
  }
  checks.Add(CheckTau(w->calibration_uncertainties, w->calibration.tau,
                      w->options.eta));

  Sequential* model = w->model.get();
  const double flops_per_step =
      TrainFlopsPerSampleStep(model, w->sample_shape);
  // Each domain's Predict calls: one per labelled row, as a deployed model
  // meets them (a pedestrian's 2-s windows, a camera's frames).
  std::vector<std::vector<Tensor>> calls(w->tasks.size());
  std::vector<double> error_before(w->tasks.size()), error_after(w->tasks.size());
  for (size_t t = 0; t < w->tasks.size(); ++t) {
    const Tensor& x = w->tasks[t].eval_inputs;
    for (size_t i = 0; i < x.dim(0); ++i) calls[t].push_back(x.SliceRows(i, i + 1));
    error_before[t] = LabelledError(model, w->tasks[t], w->log_counts);
  }
  obs::Counter* const passes_counter =
      obs::Registry::Get().GetCounter("tasfar.mc_dropout.passes");
  std::vector<AdaptTraceRecord> traced;
  ProgramSpans program_spans;

  PredictLog calls_log(opt.trace);
  const Tasfar tasfar(w->options);
  const double deadline = NowSeconds() + opt.seconds;
  size_t round = 0;
  do {
    double round_rows = 0.0, round_adapt_s = 0.0;
    for (size_t t = 0; t < w->tasks.size(); ++t) {
      const AdaptTask& task = w->tasks[t];
      TasfarReport report;
      double wall = 0.0;
      const uint64_t passes0 = passes_counter->value();
      uint64_t op_id = 0;
      {
        const TraceScope trace(opt.trace);
        op_id = trace.id();
        Rng rng(task.adapt_seed);
        Span span("core.adapt", op_id);
        report = tasfar.Adapt(model, w->calibration, task.adapt_inputs, &rng);
        wall = span.Elapsed();
      }
      ++out.attempted;
      const size_t n_rows = task.adapt_inputs.dim(0);
      if (report.skipped || report.fell_back) {
        ++out.failed;
      } else {
        e2e.adapt_s.push_back(wall);
        round_rows += static_cast<double>(n_rows);
        round_adapt_s += wall;
        if (opt.trace) {
          traced.push_back(RecordAdapt(
              report, op_id, wall,
              static_cast<double>(passes_counter->value() - passes0),
              flops_per_step));
        }
      }
      checks.Add(CheckAdaptReport(report, w->calibration, model,
                                  task.adapt_inputs.SliceRows(
                                      0, std::min<size_t>(16, n_rows))));

      // The domain's use of the adapted model: uncertainty-annotated
      // predictions of its labelled rows.
      std::unique_ptr<UncertaintyEstimator> estimator = tasfar::MakeEstimator(
          report.target_model.get(), EstimatorConfigFromOptions(w->options));
      for (const Tensor& x : calls[t]) {
        std::vector<McPrediction> pred;
        double dt = 0.0, cpu = 0.0;
        {
          const TraceScope trace(opt.trace);
          Span span("uncertainty.predict", trace.id());
          const double cpu0 = ProcessCpuSeconds();
          pred = estimator->Predict(x);
          cpu = ProcessCpuSeconds() - cpu0;
          dt = span.Elapsed();
        }
        ++out.attempted;
        calls_log.Add(dt, cpu, static_cast<double>(x.dim(0)));
        const bool finite = std::all_of(pred.begin(), pred.end(), FinitePrediction);
        if (pred.size() != x.dim(0) || !finite) {
          checks.Add("predict: non-finite or missing in-process prediction");
        }
      }
      if (round == 0) {
        error_after[t] =
            LabelledError(report.target_model.get(), task, w->log_counts);
      }
      if (opt.trace) program_spans.Drain();
    }
    calls_log.EndRound();
    if (round_adapt_s > 0.0) e2e.adapt_rows_per_s.push_back(round_rows / round_adapt_s);
    ++round;
  } while (NowSeconds() < deadline);

  for (size_t t = 0; t < w->tasks.size(); ++t) {
    out.notes.push_back(w->tasks[t].name + ": " +
                        Format("labelled error before %.6g, after %.6g",
                               error_before[t], error_after[t]));
  }
  out.notes.push_back("rounds " + std::to_string(round));
  out.notes.push_back(SetupNote(e2e.setup_s));
  std::map<std::string, double> layer;
  PredictMetrics(calls_log, opt.trace, "uncertainty.predict_", &e2e, &layer, &out);
  if (opt.trace) AdaptLayerMetrics(traced, program_spans, &layer);
  Finish(opt, e2e, setup_layers, std::move(layer), checks, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Served workloads: serve_predict and serve_adapt.
// ---------------------------------------------------------------------------

struct ServeBundle {
  std::unique_ptr<Sequential> model;
  TasfarOptions options;
  std::array<SourceCalibration, 3> calibrations;
  std::array<std::vector<double>, 3> calibration_uncertainties;
  /// Normalized source rows followed by the coastal target rows.
  Tensor pool;
  size_t num_source_rows = 0;
  /// Per backend, each pool row's uncertainty under the source model.
  std::array<std::vector<double>, 3> pool_uncertainty;
  std::map<std::string, double> layer_ms;
};

TasfarOptions WithBackend(TasfarOptions options, UncertaintyBackend backend) {
  options.uncertainty_backend = backend;
  return options;
}

/// The housing demo bundle (serve/demo.cc's recipe and seeds), built one
/// module call at a time so each layer's set-up time is its own span.
ServeBundle BuildServeBundle() {
  ServeBundle b;
  tasfar::HousingSimConfig cfg;
  cfg.source_samples = kHousingSourceRows;
  cfg.target_samples = kHousingTargetRows;
  Dataset source, target;
  Tensor src_x, tgt_x;
  {
    Span span("data.simulate");
    tasfar::HousingSimulator sim(cfg, serve::kDemoSimSeed);
    source = sim.GenerateSource();
    target = sim.GenerateTarget();
    tasfar::Normalizer normalizer;
    normalizer.Fit(source.inputs);
    src_x = normalizer.Apply(source.inputs);
    tgt_x = normalizer.Apply(target.inputs);
    b.layer_ms["data.simulate_ms"] = span.Elapsed() * 1e3;
  }
  b.options.grid_cell_size = 0.1;
  b.options.adaptation.train.epochs = kServeAdaptEpochs;
  Rng rng(1);
  b.model = tasfar::BuildTabularModel(kFeatures, &rng);
  {
    Span span("nn.source_train");
    TrainSource(b.model.get(), src_x, source.targets, kHousingEpochs, &rng);
    b.layer_ms["nn.source_train_ms"] = span.Elapsed() * 1e3;
  }
  std::vector<double> pool_data(src_x.data(), src_x.data() + src_x.size());
  pool_data.insert(pool_data.end(), tgt_x.data(), tgt_x.data() + tgt_x.size());
  b.num_source_rows = src_x.dim(0);
  b.pool = Tensor({src_x.dim(0) + tgt_x.dim(0), kFeatures}, std::move(pool_data));
  for (size_t k = 0; k < kBackends.size(); ++k) {
    const TasfarOptions options = WithBackend(b.options, kBackends[k]);
    b.calibrations[k] =
        Calibrate(b.model.get(), options, src_x, source.targets, &b.layer_ms,
                  &b.calibration_uncertainties[k]);
    Span span("uncertainty.pool_predict");
    for (const McPrediction& p :
         tasfar::MakeEstimator(b.model.get(), EstimatorConfigFromOptions(options))
             ->Predict(b.pool)) {
      b.pool_uncertainty[k].push_back(p.ScalarUncertainty());
    }
  }
  return b;
}

/// Row-major feature rows, as sent over the wire.
struct Batch {
  uint32_t rows = 0;
  std::vector<double> data;

  /// Appends a pool row drawn uniformly from `candidates`.
  void Append(const Tensor& pool, const std::vector<size_t>& candidates,
              Rng* rng) {
    const size_t row = candidates[rng->UniformInt(candidates.size())];
    data.insert(data.end(), pool.data() + row * kFeatures,
                pool.data() + (row + 1) * kFeatures);
    ++rows;
  }
};

Batch DrawRows(const Tensor& pool, const std::vector<size_t>& candidates,
               size_t n, Rng* rng) {
  Batch b;
  for (size_t i = 0; i < n; ++i) b.Append(pool, candidates, rng);
  return b;
}

/// One tenant a writer takes through create → submit → adapt → predict →
/// close, identical in every round.
struct Tenant {
  std::string user;
  size_t backend = 0;
  uint64_t session_seed = 0;
  uint64_t adapt_seed = 0;
  Batch rows;
  Batch predict;
};

Tenant MakeTenant(const ServeBundle& b, size_t writer, size_t index,
                  size_t backend, uint64_t seed) {
  Tenant t;
  t.user = "w" + std::to_string(writer) + "-" + std::to_string(index) + "-" +
           tasfar::UncertaintyBackendName(kBackends[backend]);
  t.backend = backend;
  // The laplace tenant's adaptation skips on every input (README), and an
  // operation that always fails is kept only on inputs that do not depend
  // on the seed.
  const bool always_skips =
      kBackends[backend] == UncertaintyBackend::kLastLayerLaplace;
  Rng rng(MixSeed(always_skips ? kFixedInputSeed : seed,
                  5000 + writer * 16 + index));
  t.session_seed = rng.NextU64();
  t.adapt_seed = rng.NextU64();
  // Rows well inside each side of the backend's τ, so neither side of the
  // tenant's confidence split is empty (a degenerate split skips TASFAR by
  // design and the session would degrade).
  const double tau = b.calibrations[backend].tau;
  const std::vector<double>& u = b.pool_uncertainty[backend];
  std::vector<size_t> confident, uncertain;
  for (size_t i = 0; i < u.size(); ++i) {
    if (u[i] <= 0.8 * tau) confident.push_back(i);
    if (u[i] >= 1.25 * tau && i >= b.num_source_rows) uncertain.push_back(i);
  }
  if (confident.empty() || uncertain.empty()) {
    throw std::runtime_error("tenant rows: no rows on one side of tau");
  }
  // Every fourth row confident, so each submitted chunk mixes both kinds.
  for (size_t i = 0; i < kTenantRows; ++i) {
    t.rows.Append(b.pool, i % 4 == 0 ? confident : uncertain, &rng);
  }
  std::vector<size_t> targets;
  for (size_t i = b.num_source_rows; i < u.size(); ++i) targets.push_back(i);
  t.predict = DrawRows(b.pool, targets, kTenantPredictRows, &rng);
  return t;
}

/// A session created at set-up that the client keeps predicting on.
struct Resident {
  std::string user;
  size_t backend = 0;
  uint64_t seed = 0;
  uint64_t calls = 0;  ///< Successful Predicts so far (the next call index).
};

struct Sample {
  size_t resident = 0;
  uint64_t call = 0;
  size_t batch = 0;
  serve::ClientPrediction response;
};

struct PredictTrace {
  uint64_t op_id = 0;
  double latency_ms = 0.0;
  uint32_t rows = 0;
};

struct LifecycleRecord {
  size_t tenant = 0;
  bool adapted = false;
  /// Whether the Predict after adaptation answered.
  bool predicted = false;
  // Traced runs only.
  uint64_t adapt_op_id = 0;
  double queue_wait_ms = 0.0, job_ms = 0.0, poll_lag_ms = 0.0;
  double epochs = 0.0;
};

/// One client thread's connection, sessions and results.
struct ClientState {
  std::unique_ptr<serve::Client> client;
  std::vector<Resident> residents;
  std::vector<Batch> batches;
  /// (batch, resident) pairs of one cycle.
  std::vector<std::pair<size_t, size_t>> cycle;
  size_t cursor = 0;
  std::vector<Tenant> tenants;

  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  PredictLog predicts{false};
  std::vector<Sample> samples;
  std::vector<PredictTrace> traced;
  std::vector<double> adapt_s;
  /// The current round's adapted rows and lifecycle time, and each
  /// finished round's ratio of the two.
  double round_rows = 0.0, round_lifecycle_s = 0.0;
  std::vector<double> adapt_rows_per_s;
  std::vector<double> submit_s, session_ops_s;
  std::vector<LifecycleRecord> lifecycles;
  /// Each tenant's first Predict after adaptation; later rounds' answers
  /// must equal it bit for bit, so only the first is kept.
  std::vector<std::optional<serve::ClientPrediction>> first_response;
  CheckLog checks;

  void Error(const std::string& what, const tasfar::Status& st) {
    ++failed;
    if (errors.size() < 3) errors.push_back(what + ": " + st.message());
  }
};

bool PredictOnce(ClientState* cs, bool trace) {
  const auto [batch_index, resident_index] = cs->cycle[cs->cursor % cs->cycle.size()];
  ++cs->cursor;
  const Batch& batch = cs->batches[batch_index];
  Resident& resident = cs->residents[resident_index];
  const TraceScope scope(trace);
  double dt = 0.0, cpu = 0.0;
  tasfar::Result<serve::ClientPrediction> r = tasfar::Status::Ok();
  {
    Span span("serve.predict", scope.id());
    const double cpu0 = ProcessCpuSeconds();
    r = cs->client->Predict(resident.user, batch.rows, kFeatures,
                            batch.data.data());
    cpu = ProcessCpuSeconds() - cpu0;
    dt = span.Elapsed();
  }
  ++cs->attempted;
  if (!r.ok()) {
    cs->Error("predict", r.status());
    return false;
  }
  const uint64_t call = resident.calls++;
  cs->predicts.Add(dt, cpu, batch.rows);
  if (trace) cs->traced.push_back({scope.id(), dt * 1e3, batch.rows});
  if (call % kSampleEvery == 1 && call / kSampleEvery < kSamplesPerResident) {
    cs->samples.push_back({resident_index, call, batch_index, r.value()});
  }
  return true;
}

McPrediction ToMc(const serve::WirePrediction& p) { return {p.mean, p.std}; }

/// Finds the last flight event with `code`.
uint64_t FlightTime(const serve::ClientSessionTelemetry& t,
                    serve::FlightCode code) {
  uint64_t ts = 0;
  for (const serve::ClientFlightEvent& e : t.flight_events) {
    if (e.code == static_cast<uint8_t>(code)) ts = e.t_us;
  }
  return ts;
}

void Lifecycle(ClientState* cs, size_t tenant_index, bool trace) {
  const Tenant& tenant = cs->tenants[tenant_index];
  serve::Client& client = *cs->client;
  LifecycleRecord rec;
  rec.tenant = tenant_index;
  const double t0 = NowSeconds();
  const auto session_op = [&](const char* name, auto&& call) {
    Span span(name);
    const tasfar::Status st = call();
    cs->session_ops_s.push_back(span.Elapsed());
    ++cs->attempted;
    if (!st.ok()) cs->Error(name, st);
    return st.ok();
  };
  if (!session_op("serve.create", [&] {
        return client.CreateSession(tenant.user, tenant.session_seed,
                                    kFeatures, 0, kBackends[tenant.backend]);
      })) {
    return;
  }
  bool ok = true;
  for (uint32_t off = 0; ok && off < tenant.rows.rows; off += kTenantChunkRows) {
    const uint32_t n = std::min(kTenantChunkRows, tenant.rows.rows - off);
    Span span("serve.submit");
    const tasfar::Status st = client.SubmitTargetData(
        tenant.user, n, kFeatures, tenant.rows.data.data() + off * kFeatures);
    cs->submit_s.push_back(span.Elapsed());
    ++cs->attempted;
    if (!st.ok()) {
      cs->Error("submit", st);
      ok = false;
    }
  }
  double adapt_start = 0.0;
  if (ok) {
    const TraceScope scope(trace);
    rec.adapt_op_id = scope.id();
    Span span("serve.adapt", scope.id());
    adapt_start = NowSeconds();
    const tasfar::Status st = client.Adapt(tenant.user, tenant.adapt_seed);
    ++cs->attempted;  // Counts the polls below too.
    if (!st.ok()) {
      cs->Error("adapt", st);
      ok = false;
    }
  }
  // Polls belong to the Adapt operation (Adapt request → adapted), so a
  // lifecycle is the same eight operations however long the job runs.
  uint64_t observed_us = 0;
  while (ok) {
    tasfar::Result<serve::ClientSessionInfo> info = tasfar::Status::Ok();
    {
      Span span("serve.query");
      info = client.QuerySession(tenant.user);
      cs->session_ops_s.push_back(span.Elapsed());
    }
    if (!info.ok()) {
      cs->Error("query", info.status());
      ok = false;
      break;
    }
    const serve::SessionState state = info.value().state;
    if (state == serve::SessionState::kAdapted) {
      observed_us = obs::MonotonicMicros();
      rec.adapted = true;
      cs->adapt_s.push_back(NowSeconds() - adapt_start);
      break;
    }
    if (state == serve::SessionState::kDegraded) {
      // The adaptation is the failed operation; the session keeps serving
      // the source model.
      ++cs->failed;
      if (cs->errors.size() < 3) {
        cs->errors.push_back("adapt degraded: " + info.value().degraded_reason);
      }
      break;
    }
    std::this_thread::sleep_for(kPollInterval);
  }
  if (ok) {
    tasfar::Result<serve::ClientPrediction> r = tasfar::Status::Ok();
    {
      Span span("serve.predict");
      r = client.Predict(tenant.user, tenant.predict.rows, kFeatures,
                         tenant.predict.data.data());
    }
    ++cs->attempted;
    if (r.ok()) {
      rec.predicted = true;
      cs->checks.Add(
          CheckServedShape(r.value(), tenant.predict.rows, 1, rec.adapted));
      std::optional<serve::ClientPrediction>& first =
          cs->first_response[tenant_index];
      if (!first) {
        first = r.value();
      } else {
        std::vector<McPrediction> expected;
        for (const serve::WirePrediction& p : first->predictions) {
          expected.push_back(ToMc(p));
        }
        cs->checks.Add(CheckServedEqual(r.value(), expected));
      }
    } else {
      cs->Error("predict adapted", r.status());
    }
  }
  if (rec.adapted && trace) {
    tasfar::Result<serve::ClientSessionTelemetry> t =
        client.InspectSession(tenant.user);
    if (t.ok()) {
      const uint64_t queued = FlightTime(t.value(), serve::FlightCode::kAdaptQueued);
      const uint64_t started = FlightTime(t.value(), serve::FlightCode::kAdaptStarted);
      const uint64_t done = FlightTime(t.value(), serve::FlightCode::kAdaptCompleted);
      rec.queue_wait_ms = static_cast<double>(started - queued) / 1e3;
      rec.job_ms = static_cast<double>(done - started) / 1e3;
      rec.poll_lag_ms = static_cast<double>(observed_us - done) / 1e3;
      if (!t.value().adapt_samples.empty()) {
        rec.epochs = static_cast<double>(t.value().adapt_samples.back().epochs);
      }
    }
  }
  session_op("serve.close", [&] { return client.CloseSession(tenant.user); });
  cs->round_lifecycle_s += NowSeconds() - t0;
  if (rec.adapted) cs->round_rows += tenant.rows.rows;
  cs->lifecycles.push_back(rec);
}

/// Takes every tenant of the client through one lifecycle: one round's
/// adaptations.
void Lifecycles(ClientState* cs, bool trace) {
  cs->round_rows = cs->round_lifecycle_s = 0.0;
  for (size_t t = 0; t < cs->tenants.size(); ++t) Lifecycle(cs, t, trace);
  if (cs->round_lifecycle_s > 0.0 && cs->round_rows > 0.0) {
    cs->adapt_rows_per_s.push_back(cs->round_rows / cs->round_lifecycle_s);
  }
}

/// Everything a served run sets up: bundle, server, connected clients with
/// their resident sessions and tenants.
struct ServeSetup {
  ServeBundle bundle;
  std::unique_ptr<serve::Server> server;
  std::vector<ClientState> clients;
};

/// `predicts[c]`: whether client c owns resident sessions and sends the
/// Predict mix; `writes[c]`: whether it takes tenants through lifecycles.
std::unique_ptr<ServeSetup> SetupServe(uint64_t seed,
                                       const std::vector<bool>& predicts,
                                       const std::vector<bool>& writes) {
  auto s = std::make_unique<ServeSetup>();
  s->bundle = BuildServeBundle();
  ServeBundle& b = s->bundle;
  serve::ServerConfig config;
  {
    Span span("serve.start");
    s->server = std::make_unique<serve::Server>(b.model.get(), &b.calibrations[0],
                                                b.options, config);
    s->server->RegisterBackendCalibration(kBackends[1], &b.calibrations[1]);
    s->server->RegisterBackendCalibration(kBackends[2], &b.calibrations[2]);
    const tasfar::Status st = s->server->Start();
    if (!st.ok()) throw std::runtime_error("server start: " + st.message());
  }
  std::vector<size_t> targets;
  for (size_t i = b.num_source_rows; i < b.pool.dim(0); ++i) targets.push_back(i);
  s->clients.resize(predicts.size());
  for (size_t c = 0; c < predicts.size(); ++c) {
    ClientState& cs = s->clients[c];
    cs.client = std::make_unique<serve::Client>();
    const tasfar::Status st = cs.client->Connect(s->server->port());
    if (!st.ok()) throw std::runtime_error("connect: " + st.message());
    if (writes[c]) {
      const auto add = [&](const auto& backends) {
        for (size_t t = 0; t < backends.size(); ++t) {
          cs.tenants.push_back(MakeTenant(b, c, t, backends[t], seed));
        }
      };
      if (predicts[c]) add(kPredictTenantBackends); else add(kAdaptTenantBackends);
      cs.first_response.resize(cs.tenants.size());
    }
    if (!predicts[c]) continue;
    Rng rng(MixSeed(seed, 7000 + c));
    for (size_t k = 0; k < kBackends.size(); ++k) {
      Resident r;
      r.user = "r" + std::to_string(c) + "-" +
               tasfar::UncertaintyBackendName(kBackends[k]);
      r.backend = k;
      r.seed = rng.NextU64();
      const tasfar::Status cst =
          cs.client->CreateSession(r.user, r.seed, kFeatures, 0, kBackends[k]);
      if (!cst.ok()) throw std::runtime_error("create: " + cst.message());
      cs.residents.push_back(r);
    }
    const size_t mix = kCallsPerLargeCall;
    for (size_t i = 0; i < mix; ++i) {
      const uint32_t rows = i + 1 == mix ? kLargeBatch : kSmallBatch;
      cs.batches.push_back(DrawRows(b.pool, targets, rows, &rng));
    }
    for (size_t rep = 0; rep < kCycleReps; ++rep) {
      for (size_t i = 0; i < mix; ++i) {
        cs.cycle.push_back({i, (i + rep) % kBackends.size()});
      }
    }
    // Warm-up: call 0 of every resident session.
    for (size_t k = 0; k < cs.residents.size(); ++k) {
      const Batch& batch = cs.batches[k];
      tasfar::Result<serve::ClientPrediction> r = cs.client->Predict(
          cs.residents[k].user, batch.rows, kFeatures, batch.data.data());
      if (!r.ok()) throw std::runtime_error("warm-up: " + r.status().message());
      ++cs.residents[k].calls;
    }
  }
  return s;
}

/// In-process estimator over `model` configured as a served session.
std::unique_ptr<UncertaintyEstimator> SessionEstimator(
    Sequential* model, const TasfarOptions& options, size_t backend,
    uint64_t seed) {
  EstimatorConfig config =
      EstimatorConfigFromOptions(WithBackend(options, kBackends[backend]));
  config.batch_size = serve::SessionConfig{}.predict_batch;
  config.seed = seed;
  return tasfar::MakeEstimator(model, config);
}

Tensor BatchTensor(const Batch& b) {
  return Tensor({b.rows, kFeatures}, b.data);
}

/// The served-output checks of a run, outside the timed phase.
void CheckServed(ServeSetup* s, CheckLog* checks) {
  ServeBundle& b = s->bundle;
  for (size_t k = 0; k < kBackends.size(); ++k) {
    checks->Add(CheckTau(b.calibration_uncertainties[k], b.calibrations[k].tau,
                         b.options.eta));
  }
  const Tensor dummy = b.pool.SliceRows(0, 1);
  for (ClientState& cs : s->clients) {
    // Resident sessions: sampled responses against an in-process estimator
    // advanced to the same call index.
    std::vector<Sample*> order;
    for (Sample& smp : cs.samples) order.push_back(&smp);
    std::sort(order.begin(), order.end(), [](const Sample* a, const Sample* c) {
      return a->resident != c->resident ? a->resident < c->resident
                                        : a->call < c->call;
    });
    std::unique_ptr<UncertaintyEstimator> reference;
    size_t current = SIZE_MAX;
    uint64_t next_call = 0;
    for (Sample* smp : order) {
      const Resident& r = cs.residents[smp->resident];
      if (smp->resident != current) {
        current = smp->resident;
        reference = SessionEstimator(b.model.get(), b.options, r.backend, r.seed);
        next_call = 0;
      }
      for (; next_call < smp->call; ++next_call) reference->Predict(dummy);
      const Batch& batch = cs.batches[smp->batch];
      ++next_call;
      checks->Add(CheckServedShape(smp->response, batch.rows, 1, false));
      checks->Add(CheckServedEqual(smp->response,
                                   reference->Predict(BatchTensor(batch))));
    }
    // Tenants: the adapted model recomputed in-process from the same rows
    // and Adapt seed; its first Predict is call 0. Later rounds' answers
    // were compared with the first one as they came (cs.checks).
    cs.checks.MergeInto(checks);
    std::vector<bool> adapts(cs.tenants.size(), false);
    for (size_t i = 0; i < cs.tenants.size(); ++i) {
      if (!cs.first_response[i]) continue;
      const Tenant& t = cs.tenants[i];
      const TasfarOptions options = WithBackend(b.options, kBackends[t.backend]);
      Rng rng(t.adapt_seed);
      const Tensor rows = BatchTensor(t.rows);
      TasfarReport report = Tasfar(options).Adapt(
          b.model.get(), b.calibrations[t.backend], rows, &rng);
      checks->Add(CheckAdaptReport(report, b.calibrations[t.backend],
                                   b.model.get(), rows.SliceRows(0, 16)));
      // A skipped or fallen-back adaptation degrades the session, which
      // keeps serving the source model with its first estimator.
      adapts[i] = !report.skipped && !report.fell_back;
      checks->Add(CheckServedEqual(
          *cs.first_response[i],
          SessionEstimator(adapts[i] ? report.target_model.get() : b.model.get(),
                           b.options, t.backend, t.session_seed)
              ->Predict(BatchTensor(t.predict))));
    }
    for (const LifecycleRecord& rec : cs.lifecycles) {
      if (rec.predicted && rec.adapted != adapts[rec.tenant]) {
        checks->Add("served: the session's adaptation outcome differs from "
                    "the in-process run");
      }
    }
  }
}

/// Per-layer serve metrics of a traced run.
void ServeLayerMetrics(ServeSetup* s, const ProgramSpans& spans,
                       std::map<std::string, double>* layer) {
  // Server-side Predict time per backend from the resident sessions'
  // telemetry (median over sessions of each session's p50).
  std::array<std::vector<double>, 3> server_p50;
  std::vector<PredictTrace> predicts;
  std::vector<double> submit, session_ops, queue, job, lag;
  std::vector<LifecycleRecord*> lifecycles;
  for (ClientState& cs : s->clients) {
    for (const Resident& r : cs.residents) {
      tasfar::Result<serve::ClientSessionTelemetry> t =
          cs.client->InspectSession(r.user);
      if (t.ok() && t.value().predict_count > 0) {
        server_p50[r.backend].push_back(t.value().predict_p50_ms);
      }
    }
    predicts.insert(predicts.end(), cs.traced.begin(), cs.traced.end());
    submit.insert(submit.end(), cs.submit_s.begin(), cs.submit_s.end());
    session_ops.insert(session_ops.end(), cs.session_ops_s.begin(),
                       cs.session_ops_s.end());
    for (LifecycleRecord& rec : cs.lifecycles) {
      if (!rec.adapted) continue;
      queue.push_back(rec.queue_wait_ms);
      job.push_back(rec.job_ms);
      lag.push_back(rec.poll_lag_ms);
      lifecycles.push_back(&rec);
    }
  }
  for (size_t k = 0; k < kBackends.size(); ++k) {
    (*layer)[std::string("serve.predict.server_ms.") +
             tasfar::UncertaintyBackendName(kBackends[k])] = Median(server_p50[k]);
  }
  // Client latency minus the server's `serve.request` span of the same
  // request: queueing behind the single network thread, codec, socket.
  std::vector<double> wait, small_wait, large_server;
  for (const PredictTrace& p : predicts) {
    const double server = spans.Ms(p.op_id, "serve.request");
    wait.push_back(p.latency_ms - server);
    if (p.rows == kSmallBatch) small_wait.push_back(p.latency_ms - server);
    if (p.rows == kLargeBatch) large_server.push_back(server);
  }
  (*layer)["serve.predict.wait_ms"] = Mean(wait);
  (*layer)["serve.predict.small_wait_p99_ms"] = Quantile(small_wait, 0.99);
  (*layer)["serve.predict.large_server_ms"] = Mean(large_server);
  if (!lifecycles.empty()) {
    (*layer)["serve.adapt.queue_wait_ms"] = Mean(queue);
    (*layer)["serve.adapt.job_ms"] = Mean(job);
    (*layer)["serve.adapt.poll_lag_ms"] = Mean(lag);
    (*layer)["serve.submit_ms"] = Mean(submit) * 1e3;
    (*layer)["serve.session_ops_ms"] = Mean(session_ops) * 1e3;
    const double flops_per_step =
        TrainFlopsPerSampleStep(s->bundle.model.get(), {kFeatures, 1, 1});
    double fine_ms = 0.0, steps = 0.0, epochs = 0.0;
    for (const LifecycleRecord* rec : lifecycles) {
      fine_ms += spans.Ms(rec->adapt_op_id, "fine_tune");
      epochs += rec->epochs;
      steps += rec->epochs * kTenantRows;
    }
    (*layer)["core.fine_tune_ms"] = fine_ms / static_cast<double>(lifecycles.size());
    (*layer)["core.fine_tune.epochs"] = epochs / static_cast<double>(lifecycles.size());
    if (steps > 0 && fine_ms > 0) {
      (*layer)["core.fine_tune.us_per_sample_step"] = fine_ms * 1e3 / steps;
      (*layer)["nn.fine_tune.gflop_per_s"] =
          flops_per_step * steps / (fine_ms * 1e-3) / 1e9;
    }
  }
}

/// Client threads of a served workload, one connection each: one client
/// on serve_predict, a writer and a reader on serve_adapt. Client threads
/// plus their connections must stay within the cores this process may use.
size_t ServeClients(bool adapt_workload) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const size_t cores =
      sched_getaffinity(0, sizeof(set), &set) == 0
          ? static_cast<size_t>(CPU_COUNT(&set))
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t clients = adapt_workload ? 2 : 1;
  if (2 * clients > cores) {
    throw std::runtime_error("too few cores (" + std::to_string(cores) +
                             ") for this workload's client threads and "
                             "connections");
  }
  return clients;
}

RunOutcome RunServe(const RunOptions& opt, bool adapt_workload) {
  RunOutcome out;
  EndToEnd e2e;
  CheckLog checks;
  const size_t n_clients = ServeClients(adapt_workload);
  // serve_predict: the one client owns the resident sessions and runs the
  // tenant lifecycles after each Predict burst. serve_adapt: client 0 is
  // the writer, client 1 the reader.
  std::vector<bool> predicts(n_clients, true), writes(n_clients, false);
  writes[0] = true;
  if (adapt_workload) predicts[0] = false;

  std::unique_ptr<ServeSetup> s;
  std::vector<std::map<std::string, double>> setup_layers;
  for (int r = 0; r < kServeSetupRepeats; ++r) {
    s.reset();
    const double t0 = NowSeconds();
    s = SetupServe(opt.seed, predicts, writes);
    e2e.setup_s.push_back(NowSeconds() - t0);
    setup_layers.push_back(s->bundle.layer_ms);
  }
  for (ClientState& cs : s->clients) cs.predicts = PredictLog(opt.trace);

  // Rounds end at a barrier whose completion step drains the program's
  // trace buffer (traced runs) and decides, once per round, whether to
  // stop. serve_predict: kPredictCyclesPerRound Predict cycles, then the
  // tenant lifecycles, so every run is whole rounds of the same operations.
  // serve_adapt: the writer's lifecycles while the reader predicts until
  // they end, so every read meets the same contention from adaptation.
  const double deadline = NowSeconds() + opt.seconds;
  bool stop = false;
  std::atomic<bool> writer_busy{true};
  size_t rounds = 0;
  ProgramSpans program_spans;
  auto on_round = [&]() noexcept {
    ++rounds;
    if (opt.trace) program_spans.Drain();
    writer_busy = true;
    stop = NowSeconds() >= deadline;
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(n_clients), on_round);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n_clients; ++c) {
    threads.emplace_back([&, c] {
      ClientState* cs = &s->clients[c];
      do {
        if (!adapt_workload) {
          for (size_t i = 0; i < kPredictCyclesPerRound * cs->cycle.size(); ++i) {
            PredictOnce(cs, opt.trace);
          }
          Lifecycles(cs, opt.trace);
        } else if (writes[c]) {
          Lifecycles(cs, opt.trace);
          writer_busy = false;
        } else {
          while (writer_busy.load()) PredictOnce(cs, opt.trace);
        }
        cs->predicts.EndRound();
        sync.arrive_and_wait();
      } while (!stop);
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t c = 0; c < n_clients; ++c) {
    ClientState& cs = s->clients[c];
    out.attempted += cs.attempted;
    out.failed += cs.failed;
    e2e.adapt_s.insert(e2e.adapt_s.end(), cs.adapt_s.begin(), cs.adapt_s.end());
    e2e.adapt_rows_per_s.insert(e2e.adapt_rows_per_s.end(),
                                cs.adapt_rows_per_s.begin(),
                                cs.adapt_rows_per_s.end());
    for (const std::string& err : cs.errors) out.notes.push_back(err);
  }
  out.notes.push_back("rounds " + std::to_string(rounds) + ", clients " +
                      std::to_string(n_clients));
  out.notes.push_back(SetupNote(e2e.setup_s));

  std::map<std::string, double> layer;
  for (size_t c = 0; c < n_clients; ++c) {
    if (predicts[c]) {
      PredictMetrics(s->clients[c].predicts, opt.trace, "serve.predict.", &e2e,
                     &layer, &out);
    }
  }
  if (opt.trace) ServeLayerMetrics(s.get(), program_spans, &layer);
  CheckServed(s.get(), &checks);
  s->server->Stop();

  Finish(opt, e2e, setup_layers, std::move(layer), checks, &out);
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "adapt_pdr", "adapt_crowd", "serve_predict", "serve_adapt"};
  return kNames;
}

RunOutcome RunWorkload(const RunOptions& options) {
  if (options.trace) {
    obs::SetMetricsEnabled(true);
    obs::SetTracingEnabled(true);
    EnableSpans(true);
  }
  RunOutcome out;
  if (options.workload == "adapt_pdr") {
    out = RunInProcess(options, SetupPdr);
  } else if (options.workload == "adapt_crowd") {
    out = RunInProcess(options, SetupCrowd);
  } else if (options.workload == "serve_predict") {
    out = RunServe(options, /*adapt_workload=*/false);
  } else if (options.workload == "serve_adapt") {
    out = RunServe(options, /*adapt_workload=*/true);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  out.notes.push_back("threads " + std::to_string(tasfar::GetNumThreads()) +
                      ", compute " +
                      (tasfar::simd::ComputeModeIsF32() ? "f32" : "double"));
  if (options.trace && !options.out_dir.empty()) {
    const std::string stem = options.out_dir + "/" + options.workload + "_seed" +
                             std::to_string(options.seed);
    if (!WriteSpansJsonl(stem + ".spans.jsonl")) {
      out.notes.push_back("could not write trace files under " + options.out_dir);
    }
  }
  return out;
}

}  // namespace bench
