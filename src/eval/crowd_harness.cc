#include "eval/crowd_harness.h"

#include <algorithm>
#include <cmath>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace tasfar {

size_t CrowdModelCutLayer() {
  // BuildCrowdModel: MultiColumn, Dropout, Dense, Relu, Dropout, Dense —
  // features are the activation after layer 3 (the fused ReLU).
  return 4;
}

CrowdHarness::CrowdHarness(const CrowdHarnessConfig& config)
    : config_(config) {}

void CrowdHarness::Prepare() {
  TASFAR_CHECK_MSG(!prepared_, "Prepare called twice");
  simulator_ = std::make_unique<CrowdSimulator>(config_.sim, config_.seed);
  // TASFAR_ANALYZE_ALLOW(seed-discipline): pre-MixSeed stream split, pinned: reseeding would shift every EXPERIMENTS.md baseline number.
  Rng rng(config_.seed ^ 0x5c0ffeeULL);

  Dataset part_a = simulator_->GeneratePartA();
  // The counter regresses log1p(count) (metrics stay in raw counts), which
  // keeps the MC-dropout uncertainty scale comparable between the dense
  // Part-A images and the sparser Part-B sites.
  part_a.targets.MapInPlace([](double y) { return std::log1p(y); });
  SplitResult split = SplitFraction(part_a, 1.0 - kCalibrationFraction,
                                    /*shuffle=*/true, &rng);
  source_train_ = std::move(split.first);
  source_calib_ = std::move(split.second);

  source_model_ = BuildCrowdModel(config_.sim.image_size, &rng);
  Adam optimizer(kSourceLearningRate);
  Trainer trainer(source_model_.get(), &optimizer,
                  [](const Tensor& p, const Tensor& t, Tensor* g,
                     const std::vector<double>* w) {
                    return loss::Mse(p, t, g, w);
                  });
  TrainConfig tc;
  tc.epochs = config_.source_epochs;
  trainer.Fit(source_train_.inputs, source_train_.targets, tc, &rng);
  // Cool-down phase (see PdrHarness): squeeze out the optimization noise
  // so the confidence threshold reflects genuine uncertainty.
  optimizer.set_learning_rate(kSourceLearningRate / 5.0);
  tc.epochs = config_.source_epochs / 2;
  trainer.Fit(source_train_.inputs, source_train_.targets, tc, &rng);

  Tasfar tasfar(config_.tasfar);
  calibration_ = tasfar.Calibrate(source_model_.get(), source_calib_.inputs,
                                  source_calib_.targets);
  part_b_ = simulator_->GeneratePartB();
  prepared_ = true;
  TASFAR_LOG(kInfo) << "CrowdHarness ready: tau=" << calibration_.tau;
}

namespace {

CrowdSceneData MakeSceneData(int scene_id, const Dataset& data,
                             Sequential* model, const TasfarOptions& opts,
                             double tau, Rng* rng) {
  CrowdSceneData scene;
  scene.scene_id = scene_id;
  SplitResult split = SplitFraction(data, kAdaptationFraction,
                                    /*shuffle=*/true, rng);
  scene.adapt = std::move(split.first);
  scene.test = std::move(split.second);
  std::unique_ptr<UncertaintyEstimator> predictor =
      MakeEstimator(model, EstimatorConfigFromOptions(opts));
  scene.adapt_preds = predictor->Predict(scene.adapt.inputs);
  ConfidenceClassifier classifier(tau);
  scene.uncertain_indices = classifier.Classify(scene.adapt_preds).uncertain;
  return scene;
}

}  // namespace

std::vector<CrowdSceneData> CrowdHarness::BuildScenes() const {
  TASFAR_CHECK(prepared_);
  // TASFAR_ANALYZE_ALLOW(seed-discipline): pre-MixSeed stream split, pinned: reseeding would shift every EXPERIMENTS.md baseline number.
  Rng rng(config_.seed ^ 0xd1ce5ULL);
  std::vector<CrowdSceneData> scenes;
  for (int scene_id : DistinctGroups(part_b_)) {
    Dataset data = FilterByGroup(part_b_, scene_id);
    scenes.push_back(MakeSceneData(scene_id, data, source_model_.get(),
                                   config_.tasfar, calibration_.tau, &rng));
  }
  return scenes;
}

CrowdSceneData CrowdHarness::BuildPooledScene() const {
  TASFAR_CHECK(prepared_);
  // TASFAR_ANALYZE_ALLOW(seed-discipline): pre-MixSeed stream split, pinned: reseeding would shift every EXPERIMENTS.md baseline number.
  Rng rng(config_.seed ^ 0xd1ce6ULL);
  return MakeSceneData(-1, part_b_, source_model_.get(), config_.tasfar,
                       calibration_.tau, &rng);
}

Tensor CrowdHarness::ToCounts(const Tensor& model_output) const {
  return model_output.Map(
      [](double y) { return std::max(0.0, std::expm1(y)); });
}

CrowdEval CrowdHarness::Evaluate(Sequential* model,
                                 const CrowdSceneData& scene) const {
  TASFAR_CHECK(prepared_ && model != nullptr);
  CrowdEval eval;
  Tensor adapt_pred = ToCounts(BatchedForward(model, scene.adapt.inputs));
  eval.mae_adapt_whole = metrics::Mae(adapt_pred, scene.adapt.targets);
  eval.mse_adapt_whole = metrics::Rmse(adapt_pred, scene.adapt.targets);
  Tensor test_pred = ToCounts(BatchedForward(model, scene.test.inputs));
  eval.mae_test = metrics::Mae(test_pred, scene.test.targets);
  eval.mse_test = metrics::Rmse(test_pred, scene.test.targets);
  if (obs::MetricsEnabled()) {
    // Last-evaluated-model results; snapshots written right after an
    // evaluation therefore carry that model's numbers.
    static obs::Gauge* const kMae =
        obs::Registry::Get().GetGauge("tasfar.eval.mae_test");
    static obs::Gauge* const kRmse =
        obs::Registry::Get().GetGauge("tasfar.eval.rmse_test");
    kMae->Set(eval.mae_test);
    kRmse->Set(eval.mse_test);
  }
  return eval;
}

std::unique_ptr<Sequential> CrowdHarness::AdaptTasfar(
    const CrowdSceneData& scene, TasfarReport* report_out) const {
  TASFAR_CHECK(prepared_);
  TASFAR_TRACE_SPAN("eval.crowd");
  Tasfar tasfar(config_.tasfar);
  // TASFAR_ANALYZE_ALLOW(seed-discipline): pre-MixSeed stream split, pinned: reseeding would shift every EXPERIMENTS.md baseline number.
  Rng rng(config_.seed ^ (0xabc0ULL + static_cast<uint64_t>(
                                          scene.scene_id + 2)));
  TasfarReport report = tasfar.Adapt(source_model_.get(), calibration_,
                                     scene.adapt.inputs, &rng);
  std::unique_ptr<Sequential> model = std::move(report.target_model);
  if (report_out != nullptr) *report_out = std::move(report);
  return model;
}

std::unique_ptr<Sequential> CrowdHarness::AdaptScheme(
    UdaScheme* scheme, const CrowdSceneData& scene) const {
  TASFAR_CHECK(prepared_ && scheme != nullptr);
  // TASFAR_ANALYZE_ALLOW(seed-discipline): pre-MixSeed stream split, pinned: reseeding would shift every EXPERIMENTS.md baseline number.
  Rng rng(config_.seed ^ (0xdef0ULL + static_cast<uint64_t>(
                                          scene.scene_id + 2)));
  UdaContext context;
  context.source_inputs = &source_train_.inputs;
  context.source_targets = &source_train_.targets;
  context.target_inputs = &scene.adapt.inputs;
  return scheme->Adapt(*source_model_, context, &rng);
}

}  // namespace tasfar
