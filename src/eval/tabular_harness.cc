#include "eval/tabular_harness.h"

#include <cmath>

#include "data/housing_sim.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace tasfar {

size_t TabularModelCutLayer() {
  // BuildTabularModel: Dense, Relu, Dropout, Dense, Relu, Dropout, Dense —
  // features are the activation after layer 4 (second ReLU).
  return 5;
}

TabularHarness::TabularHarness(const TabularHarnessConfig& config,
                               Dataset source, Dataset target)
    : config_(config),
      source_raw_(std::move(source)),
      target_raw_(std::move(target)) {
  source_raw_.Validate();
  target_raw_.Validate();
}

void TabularHarness::Prepare() {
  TASFAR_CHECK_MSG(!prepared_, "Prepare called twice");
  // TASFAR_ANALYZE_ALLOW(seed-discipline): pre-MixSeed stream split, pinned: reseeding would shift every EXPERIMENTS.md baseline number.
  Rng rng(config_.seed ^ 0x7ab1eULL);

  normalizer_.Fit(source_raw_.inputs);
  Dataset source = source_raw_;
  source.inputs = normalizer_.Apply(source.inputs);
  Dataset target = target_raw_;
  target.inputs = normalizer_.Apply(target.inputs);

  if (config_.log_labels) {
    auto to_log = [](Tensor* t) {
      t->MapInPlace([](double y) { return std::log1p(y); });
    };
    to_log(&source.targets);
    to_log(&target.targets);
  }
  // Standardize the labels on source statistics: the model (and hence the
  // MC-dropout uncertainties, τ, Q_s, and the density-map grid) lives in a
  // scale-free label space, as a deployed regressor would.
  const Tensor label_mean = source.targets.ColMean();
  const Tensor label_std = source.targets.ColStd();
  label_mean_ = label_mean[0];
  label_std_ = label_std[0] > 0.0 ? label_std[0] : 1.0;
  auto standardize = [this](Tensor* t) {
    t->MapInPlace(
        [this](double y) { return (y - label_mean_) / label_std_; });
  };
  standardize(&source.targets);
  standardize(&target.targets);

  SplitResult src_split = SplitFraction(
      source, 1.0 - kCalibrationFraction, /*shuffle=*/true, &rng);
  source_train_ = std::move(src_split.first);
  source_calib_ = std::move(src_split.second);
  SplitResult tgt_split = SplitFraction(target, kAdaptationFraction,
                                        /*shuffle=*/true, &rng);
  target_adapt_ = std::move(tgt_split.first);
  target_test_ = std::move(tgt_split.second);

  source_model_ = BuildTabularModel(source_train_.inputs.dim(1), &rng);
  Adam optimizer(kSourceLearningRate);
  Trainer trainer(source_model_.get(), &optimizer,
                  [](const Tensor& p, const Tensor& t, Tensor* g,
                     const std::vector<double>* w) {
                    return loss::Mse(p, t, g, w);
                  });
  TrainConfig tc;
  tc.epochs = config_.source_epochs;
  trainer.Fit(source_train_.inputs, source_train_.targets, tc, &rng);

  Tasfar tasfar(config_.tasfar);
  calibration_ = tasfar.Calibrate(source_model_.get(), source_calib_.inputs,
                                  source_calib_.targets);
  prepared_ = true;
  TASFAR_LOG(kInfo) << "TabularHarness(" << config_.task_name
                    << ") ready: tau=" << calibration_.tau;
}

double TabularHarness::Metric(Sequential* model, const Tensor& inputs,
                              const Tensor& targets) const {
  auto to_raw = [this](const Tensor& t) {
    return t.Map([this](double y) {
      const double unscaled = y * label_std_ + label_mean_;
      return config_.log_labels ? std::expm1(unscaled) : unscaled;
    });
  };
  Tensor pred = to_raw(BatchedForward(model, inputs));
  Tensor raw_targets = to_raw(targets);
  switch (config_.metric) {
    case TabularMetric::kMse:
      return metrics::Mse(pred, raw_targets);
    case TabularMetric::kRmsle:
      return metrics::Rmsle(pred, raw_targets);
  }
  return 0.0;
}

TabularEval TabularHarness::EvaluateModel(Sequential* target_model) const {
  TabularEval eval;
  eval.metric_adapt_before = Metric(source_model_.get(),
                                    target_adapt_.inputs,
                                    target_adapt_.targets);
  eval.metric_adapt_after =
      Metric(target_model, target_adapt_.inputs, target_adapt_.targets);
  eval.metric_test_before = Metric(source_model_.get(), target_test_.inputs,
                                   target_test_.targets);
  eval.metric_test_after =
      Metric(target_model, target_test_.inputs, target_test_.targets);
  return eval;
}

TabularEval TabularHarness::EvaluateTasfar(TasfarReport* report_out) const {
  TASFAR_CHECK(prepared_);
  TASFAR_TRACE_SPAN("eval.tabular");
  Tasfar tasfar(config_.tasfar);
  // TASFAR_ANALYZE_ALLOW(seed-discipline): pre-MixSeed stream split, pinned: reseeding would shift every EXPERIMENTS.md baseline number.
  Rng rng(config_.seed ^ 0x9d7ULL);
  TasfarReport report = tasfar.Adapt(source_model_.get(), calibration_,
                                     target_adapt_.inputs, &rng);
  TabularEval eval = EvaluateModel(report.target_model.get());
  if (obs::MetricsEnabled()) {
    static obs::Gauge* const kTestBefore =
        obs::Registry::Get().GetGauge("tasfar.eval.metric_test_before");
    static obs::Gauge* const kTestAfter =
        obs::Registry::Get().GetGauge("tasfar.eval.metric_test_after");
    static obs::Gauge* const kAdaptBefore =
        obs::Registry::Get().GetGauge("tasfar.eval.metric_adapt_before");
    static obs::Gauge* const kAdaptAfter =
        obs::Registry::Get().GetGauge("tasfar.eval.metric_adapt_after");
    kTestBefore->Set(eval.metric_test_before);
    kTestAfter->Set(eval.metric_test_after);
    kAdaptBefore->Set(eval.metric_adapt_before);
    kAdaptAfter->Set(eval.metric_adapt_after);
  }
  if (report_out != nullptr) *report_out = std::move(report);
  return eval;
}

TabularEval TabularHarness::EvaluateTasfarWithOptions(
    const TasfarOptions& options, TasfarReport* report_out) const {
  TASFAR_CHECK(prepared_);
  TASFAR_TRACE_SPAN("eval.tabular");
  Tasfar tasfar(options);
  SourceCalibration calibration = tasfar.Calibrate(
      source_model_.get(), source_calib_.inputs, source_calib_.targets);
  // TASFAR_ANALYZE_ALLOW(seed-discipline): pre-MixSeed stream split, pinned: reseeding would shift every EXPERIMENTS.md baseline number.
  Rng rng(config_.seed ^ 0x9d7ULL);
  TasfarReport report = tasfar.Adapt(source_model_.get(), calibration,
                                     target_adapt_.inputs, &rng);
  TabularEval eval = EvaluateModel(report.target_model.get());
  if (report_out != nullptr) *report_out = std::move(report);
  return eval;
}

TabularEval TabularHarness::EvaluateScheme(UdaScheme* scheme) const {
  TASFAR_CHECK(prepared_ && scheme != nullptr);
  // TASFAR_ANALYZE_ALLOW(seed-discipline): pre-MixSeed stream split, pinned: reseeding would shift every EXPERIMENTS.md baseline number.
  Rng rng(config_.seed ^ 0x8c1ULL);
  UdaContext context;
  context.source_inputs = &source_train_.inputs;
  context.source_targets = &source_train_.targets;
  context.target_inputs = &target_adapt_.inputs;
  std::unique_ptr<Sequential> adapted =
      scheme->Adapt(*source_model_, context, &rng);
  return EvaluateModel(adapted.get());
}

}  // namespace tasfar
