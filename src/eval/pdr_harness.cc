#include "eval/pdr_harness.h"

#include <cmath>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace tasfar {

size_t PdrModelCutLayer() {
  // BuildPdrModel: Conv1d, Relu, Conv1d, Relu, Flatten, Dropout, Dense,
  // Relu, Dropout, Dense — features are the activation after layer 7
  // (the penultimate ReLU).
  return 8;
}

PdrHarness::PdrHarness(const PdrHarnessConfig& config) : config_(config) {}

void PdrHarness::Prepare() {
  TASFAR_CHECK_MSG(!prepared_, "Prepare called twice");
  simulator_ = std::make_unique<PdrSimulator>(config_.sim, config_.seed);
  // TASFAR_ANALYZE_ALLOW(seed-discipline): pre-MixSeed stream split, pinned: reseeding would shift every EXPERIMENTS.md baseline number.
  Rng rng(config_.seed ^ 0xabcdef12345ULL);

  Dataset source = simulator_->GenerateSourceDataset();
  SplitResult split = SplitFraction(source, 1.0 - kCalibrationFraction,
                                    /*shuffle=*/true, &rng);
  source_train_ = std::move(split.first);
  source_calib_ = std::move(split.second);

  source_model_ = BuildPdrModel(config_.sim.window_len, &rng);
  Adam optimizer(kSourceLearningRate);
  Trainer trainer(source_model_.get(), &optimizer,
                  [](const Tensor& p, const Tensor& t, Tensor* g,
                     const std::vector<double>* w) {
                    return loss::Mse(p, t, g, w);
                  });
  TrainConfig tc;
  tc.epochs = config_.source_epochs;
  trainer.Fit(source_train_.inputs, source_train_.targets, tc, &rng);
  // Cool-down phase at a fifth of the learning rate: the per-window noise
  // floor of the simulator is low, so the extra fitting precision directly
  // widens the confident/uncertain error contrast TASFAR relies on.
  optimizer.set_learning_rate(kSourceLearningRate / 5.0);
  tc.epochs = config_.source_epochs / 2;
  trainer.Fit(source_train_.inputs, source_train_.targets, tc, &rng);

  // Source-side MC predictions, cached for calibration re-use.
  std::unique_ptr<UncertaintyEstimator> predictor = MakeEstimator(
      source_model_.get(), EstimatorConfigFromOptions(config_.tasfar));
  source_calib_preds_ = predictor->Predict(source_calib_.inputs);
  calibration_ = CalibrateWith(config_.tasfar.eta,
                               config_.tasfar.num_segments);

  users_ = simulator_->GenerateTargetUsers();
  prepared_ = true;
  TASFAR_LOG(kInfo) << "PdrHarness ready: " << source_train_.size()
                    << " source train windows, tau=" << calibration_.tau;
}

SourceCalibration PdrHarness::CalibrateWith(double eta,
                                            size_t num_segments) const {
  TASFAR_CHECK(!source_calib_preds_.empty());
  TasfarOptions options = config_.tasfar;
  options.eta = eta;
  options.num_segments = num_segments;
  return Tasfar(options).CalibrateFromPredictions(source_calib_preds_,
                                                  source_calib_.targets);
}

std::vector<SegmentStats> PdrHarness::UncertaintySegments(
    size_t dim, size_t num_segments) const {
  TASFAR_CHECK(!source_calib_preds_.empty());
  TASFAR_CHECK(dim < source_calib_.label_dim());
  return QsCalibrator::Segment(
      CalibrationPairs(source_calib_preds_, source_calib_.targets, dim),
      num_segments);
}

Dataset PdrHarness::PoolTrajectories(
    const std::vector<PdrTrajectory>& trajs) {
  TASFAR_CHECK(!trajs.empty());
  std::vector<Dataset> parts;
  parts.reserve(trajs.size());
  for (const PdrTrajectory& t : trajs) parts.push_back(t.steps);
  return Concat(parts);
}

PdrUserCache PdrHarness::BuildUserCache(const PdrUserData& user) const {
  TASFAR_CHECK(prepared_);
  PdrUserCache cache;
  cache.user = user;
  cache.adapt_pool = PoolTrajectories(user.adaptation);
  cache.test_pool = PoolTrajectories(user.test);
  std::unique_ptr<UncertaintyEstimator> predictor = MakeEstimator(
      source_model_.get(), EstimatorConfigFromOptions(config_.tasfar));
  cache.adapt_preds = predictor->Predict(cache.adapt_pool.inputs);
  return cache;
}

PdrSchemeEval PdrHarness::EvaluateModel(Sequential* target_model,
                                        const PdrUserCache& cache) const {
  TASFAR_CHECK(prepared_ && target_model != nullptr);
  PdrSchemeEval eval;
  Tensor adapt_before =
      BatchedForward(source_model_.get(), cache.adapt_pool.inputs);
  Tensor adapt_after = BatchedForward(target_model, cache.adapt_pool.inputs);
  eval.ste_adapt_before = metrics::Ste(adapt_before,
                                       cache.adapt_pool.targets);
  eval.ste_adapt_after = metrics::Ste(adapt_after, cache.adapt_pool.targets);
  Tensor test_before =
      BatchedForward(source_model_.get(), cache.test_pool.inputs);
  Tensor test_after = BatchedForward(target_model, cache.test_pool.inputs);
  eval.ste_test_before = metrics::Ste(test_before, cache.test_pool.targets);
  eval.ste_test_after = metrics::Ste(test_after, cache.test_pool.targets);
  for (const PdrTrajectory& traj : cache.user.test) {
    Tensor before = BatchedForward(source_model_.get(), traj.steps.inputs);
    Tensor after = BatchedForward(target_model, traj.steps.inputs);
    eval.rte_test_before.push_back(metrics::Rte(before, traj.steps.targets));
    eval.rte_test_after.push_back(metrics::Rte(after, traj.steps.targets));
  }
  return eval;
}

PdrSchemeEval PdrHarness::EvaluateTasfar(const PdrUserCache& cache,
                                         TasfarReport* report_out) const {
  return EvaluateTasfarWithOptions(cache, config_.tasfar, report_out);
}

PdrSchemeEval PdrHarness::EvaluateTasfarWithOptions(
    const PdrUserCache& cache, const TasfarOptions& options,
    TasfarReport* report_out) const {
  TASFAR_CHECK(prepared_);
  TASFAR_TRACE_SPAN("eval.pdr");
  Tasfar tasfar(options);
  // TASFAR_ANALYZE_ALLOW(seed-discipline): pre-MixSeed stream split, pinned: reseeding would shift every EXPERIMENTS.md baseline number.
  Rng rng(config_.seed ^ (0x77fULL + static_cast<uint64_t>(
                                          cache.user.profile.id)));
  TasfarReport report = tasfar.Adapt(source_model_.get(), calibration_,
                                     cache.adapt_pool.inputs, &rng);
  PdrSchemeEval eval = EvaluateModel(report.target_model.get(), cache);
  if (obs::MetricsEnabled()) {
    static obs::Gauge* const kSteBefore =
        obs::Registry::Get().GetGauge("tasfar.eval.ste_test_before");
    static obs::Gauge* const kSteAfter =
        obs::Registry::Get().GetGauge("tasfar.eval.ste_test_after");
    kSteBefore->Set(eval.ste_test_before);
    kSteAfter->Set(eval.ste_test_after);
  }
  if (report_out != nullptr) *report_out = std::move(report);
  return eval;
}

PdrSchemeEval PdrHarness::EvaluateScheme(UdaScheme* scheme,
                                         const PdrUserCache& cache) const {
  TASFAR_CHECK(prepared_ && scheme != nullptr);
  // TASFAR_ANALYZE_ALLOW(seed-discipline): pre-MixSeed stream split, pinned: reseeding would shift every EXPERIMENTS.md baseline number.
  Rng rng(config_.seed ^ (0x881ULL + static_cast<uint64_t>(
                                         cache.user.profile.id)));
  // Subsample the source set for the source-based baselines (speed).
  constexpr size_t kBaselineSourceSubsample = 1200;
  Dataset source = source_train_;
  if (source.size() > kBaselineSourceSubsample) {
    std::vector<size_t> idx =
        rng.Permutation(source.size());
    idx.resize(kBaselineSourceSubsample);
    source = Subset(source, idx);
  }
  UdaContext context;
  context.source_inputs = &source.inputs;
  context.source_targets = &source.targets;
  context.target_inputs = &cache.adapt_pool.inputs;
  std::unique_ptr<Sequential> adapted =
      scheme->Adapt(*source_model_, context, &rng);
  return EvaluateModel(adapted.get(), cache);
}

PseudoLabelEval PdrHarness::PseudoLabelQuality(
    const PdrUserCache& cache, const SourceCalibration& calib,
    double grid_cell_size, ErrorModelKind error_model) const {
  TASFAR_CHECK(prepared_);
  PseudoLabelEval eval;
  ConfidenceClassifier classifier(calib.tau);
  ConfidenceSplit split = classifier.Classify(cache.adapt_preds);
  eval.num_confident = split.confident.size();
  eval.num_uncertain = split.uncertain.size();
  if (split.confident.empty() || split.uncertain.empty()) return eval;

  std::vector<McPrediction> confident, uncertain;
  for (size_t i : split.confident) confident.push_back(cache.adapt_preds[i]);
  for (size_t i : split.uncertain) uncertain.push_back(cache.adapt_preds[i]);

  LabelDistributionEstimator estimator(calib.qs_per_dim, error_model);
  std::vector<GridSpec> axes = estimator.AutoAxes(confident, grid_cell_size);
  DensityMap map = estimator.Estimate(confident, axes);
  PseudoLabelGenerator generator(&map, &estimator, calib.tau);

  double pseudo_sum = 0.0, pred_sum = 0.0;
  for (size_t k = 0; k < uncertain.size(); ++k) {
    const size_t row = split.uncertain[k];
    PseudoLabel pl = generator.Generate(uncertain[k]);
    double pseudo_err = 0.0, pred_err = 0.0;
    for (size_t d = 0; d < pl.value.size(); ++d) {
      const double truth = cache.adapt_pool.targets.At(row, d);
      pseudo_err += (pl.value[d] - truth) * (pl.value[d] - truth);
      pred_err += (uncertain[k].mean[d] - truth) *
                  (uncertain[k].mean[d] - truth);
    }
    pseudo_err = std::sqrt(pseudo_err);
    pred_err = std::sqrt(pred_err);
    pseudo_sum += pseudo_err;
    pred_sum += pred_err;
    eval.betas.push_back(pl.credibility);
    eval.pseudo_errors.push_back(pseudo_err);
  }
  eval.pseudo_mae = pseudo_sum / static_cast<double>(uncertain.size());
  eval.pred_mae = pred_sum / static_cast<double>(uncertain.size());
  return eval;
}

double PdrHarness::DensityMapError(const PdrUserCache& cache,
                                   const SourceCalibration& calib,
                                   double grid_cell_size) const {
  TASFAR_CHECK(prepared_);
  ConfidenceClassifier classifier(calib.tau);
  ConfidenceSplit split = classifier.Classify(cache.adapt_preds);
  TASFAR_CHECK_MSG(!split.confident.empty(), "no confident data");
  std::vector<McPrediction> confident;
  for (size_t i : split.confident) confident.push_back(cache.adapt_preds[i]);

  LabelDistributionEstimator estimator(calib.qs_per_dim, kTasfarErrorModel);
  std::vector<GridSpec> axes = estimator.AutoAxes(confident, grid_cell_size);
  DensityMap estimated = estimator.Estimate(confident, axes);

  Tensor confident_labels = GatherFirstDim(
      cache.adapt_pool.targets, split.confident);
  DensityMap truth = BuildTrueDensityMap(confident_labels, axes);
  // L1 distance between the two normalized maps (sum over cells of the
  // absolute density difference). It is bounded by 2 and matches the
  // paper's Fig. 7, whose error converges to ~2 at extremely small grids
  // (disjoint spiky histograms) and to 0 at extremely large ones (a
  // single cell holds everything in both maps).
  return estimated.MeanAbsDiff(truth) *
         static_cast<double>(estimated.NumCells());
}

}  // namespace tasfar
