#include "core/tasfar.h"

#include <algorithm>
#include <cmath>

#include "nn/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace tasfar {

namespace {

bool FinitePrediction(const McPrediction& p) {
  for (double v : p.mean) {
    if (!std::isfinite(v)) return false;
  }
  for (double v : p.std) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool FinitePseudoLabel(const PseudoLabel& label) {
  if (!std::isfinite(label.credibility)) return false;
  for (double v : label.value) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

std::vector<UncertaintyErrorPair> CalibrationPairs(
    const std::vector<McPrediction>& predictions, const Tensor& targets,
    size_t dim) {
  std::vector<UncertaintyErrorPair> pairs;
  pairs.reserve(predictions.size());
  for (size_t i = 0; i < predictions.size(); ++i) {
    if (!FinitePrediction(predictions[i]) ||
        !std::isfinite(targets.At(i, dim))) {
      continue;
    }
    pairs.push_back({predictions[i].std[dim],
                     predictions[i].mean[dim] - targets.At(i, dim)});
  }
  return pairs;
}

EstimatorConfig EstimatorConfigFromOptions(const TasfarOptions& options) {
  EstimatorConfig config;
  config.backend = options.uncertainty_backend;
  config.mc_samples = options.mc_samples;
  config.ensemble_members = options.ensemble_members;
  return config;
}

Tasfar::Tasfar(const TasfarOptions& options) : options_(options) {
  TASFAR_CHECK(options.mc_samples >= 2);
  TASFAR_CHECK(options.ensemble_members >= 2);
  TASFAR_CHECK(options.eta > 0.0 && options.eta < 1.0);
  TASFAR_CHECK(options.num_segments >= 1);
  TASFAR_CHECK(options.grid_cell_size > 0.0);
}

SourceCalibration Tasfar::Calibrate(Sequential* source_model,
                                    const Tensor& source_inputs,
                                    const Tensor& source_targets) const {
  TASFAR_CHECK(source_model != nullptr);
  TASFAR_CHECK(source_inputs.dim(0) == source_targets.dim(0));
  std::unique_ptr<UncertaintyEstimator> estimator =
      MakeEstimator(source_model, EstimatorConfigFromOptions(options_));
  return CalibrateFromPredictions(estimator->Predict(source_inputs),
                                  source_targets);
}

SourceCalibration Tasfar::CalibrateFromPredictions(
    const std::vector<McPrediction>& preds,
    const Tensor& source_targets) const {
  TASFAR_TRACE_SPAN("calibrate");
  TASFAR_CHECK(source_targets.rank() == 2);
  TASFAR_CHECK(preds.size() == source_targets.dim(0));
  const size_t dims = source_targets.dim(1);

  SourceCalibration calib;
  // Only finite predictions participate in calibration; a poisoned MC pass
  // must not propagate NaN into τ or the Q_s fits. With no finite
  // prediction at all, τ = 0 classifies everything as uncertain, the
  // split degenerates, and Adapt falls back to the source model.
  std::vector<double> uncertainties;
  uncertainties.reserve(preds.size());
  for (const McPrediction& p : preds) {
    if (!FinitePrediction(p)) continue;
    uncertainties.push_back(p.ScalarUncertainty());
  }
  if (uncertainties.size() < preds.size()) {
    TASFAR_LOG(kWarning) << "calibration dropped "
                         << preds.size() - uncertainties.size()
                         << " non-finite predictions";
    static obs::Counter* const kDropped = obs::Registry::Get().GetCounter(
        "tasfar.guard.calibration_dropped_predictions");
    kDropped->Increment(
        static_cast<uint64_t>(preds.size() - uncertainties.size()));
  }
  calib.tau =
      uncertainties.empty()
          ? 0.0
          : ConfidenceClassifier::ComputeThreshold(uncertainties,
                                                   options_.eta);

  calib.qs_per_dim.reserve(dims);
  for (size_t d = 0; d < dims; ++d) {
    std::vector<UncertaintyErrorPair> pairs =
        CalibrationPairs(preds, source_targets, d);
    if (pairs.empty()) {
      // Default QsModel: zero line clamped at sigma_min — proper but
      // uninformative, matching the degenerate τ above.
      calib.qs_per_dim.push_back(QsModel{});
      continue;
    }
    const size_t q = std::min(options_.num_segments, pairs.size());
    calib.qs_per_dim.push_back(QsCalibrator::Fit(std::move(pairs), q));
  }
  return calib;
}

TasfarReport Tasfar::Adapt(Sequential* source_model,
                           const SourceCalibration& calibration,
                           const Tensor& target_inputs, Rng* rng) const {
  TASFAR_CHECK(source_model != nullptr);
  std::unique_ptr<UncertaintyEstimator> estimator =
      MakeEstimator(source_model, EstimatorConfigFromOptions(options_));
  return AdaptWithPredictions(source_model, calibration, target_inputs,
                              estimator->Predict(target_inputs), rng);
}

TasfarReport Tasfar::AdaptWithPredictions(
    Sequential* source_model, const SourceCalibration& calibration,
    const Tensor& target_inputs, std::vector<McPrediction> predictions,
    Rng* rng) const {
  TASFAR_CHECK(source_model != nullptr && rng != nullptr);
  TASFAR_CHECK_MSG(!calibration.qs_per_dim.empty(),
                   "calibration must be computed first");
  TASFAR_CHECK(predictions.size() == target_inputs.dim(0));
  TASFAR_TRACE_SPAN("adapt");
  TasfarReport report;
  report.tau = calibration.tau;
  report.predictions = std::move(predictions);

  // Any stage fault below lands here: ship a clone of the unmodified
  // source model, never a crash and never a poisoned model. This is the
  // never-worse-than-source guarantee under faults.
  const auto fall_back = [&](const std::string& reason) {
    TASFAR_LOG(kWarning) << "TASFAR fallback to source model: " << reason;
    static obs::Counter* const kFallback =
        obs::Registry::Get().GetCounter("tasfar.adapt.fallback");
    kFallback->Increment();
    report.target_model = source_model->CloneSequential();
    report.fell_back = true;
    report.fallback_reason = reason;
  };

  if (TASFAR_FAILPOINT("tasfar.stage_fault")) {
    fall_back("injected fault: tasfar.stage_fault");
    return report;
  }
  if (!std::isfinite(calibration.tau) || calibration.tau < 0.0) {
    fall_back("invalid confidence threshold tau");
    return report;
  }

  // 1. Confidence classification (Alg. 1), over the finite predictions
  // only: a poisoned prediction (NaN mean/std) would otherwise land in
  // the confident set (NaN > tau is false) and corrupt the density axes.
  std::vector<size_t> valid_idx;
  valid_idx.reserve(report.predictions.size());
  std::vector<double> uncertainties;
  uncertainties.reserve(report.predictions.size());
  for (size_t i = 0; i < report.predictions.size(); ++i) {
    if (!FinitePrediction(report.predictions[i])) continue;
    valid_idx.push_back(i);
    uncertainties.push_back(report.predictions[i].ScalarUncertainty());
  }
  if (valid_idx.size() < report.predictions.size()) {
    TASFAR_LOG(kWarning) << "adaptation dropped "
                         << report.predictions.size() - valid_idx.size()
                         << " non-finite predictions";
    static obs::Counter* const kDropped = obs::Registry::Get().GetCounter(
        "tasfar.guard.dropped_predictions");
    kDropped->Increment(
        static_cast<uint64_t>(report.predictions.size() - valid_idx.size()));
  }
  if (valid_idx.empty() && !report.predictions.empty()) {
    fall_back("every target prediction is non-finite");
    return report;
  }
  ConfidenceClassifier classifier(calibration.tau);
  ConfidenceSplit split = classifier.ClassifyUncertainties(uncertainties);
  for (size_t& i : split.confident) i = valid_idx[i];
  for (size_t& i : split.uncertain) i = valid_idx[i];
  report.confident_indices = split.confident;
  report.uncertain_indices = split.uncertain;
  report.num_confident = split.confident.size();
  report.num_uncertain = split.uncertain.size();

  if (split.confident.empty() || split.uncertain.empty()) {
    // Degenerate ratio-0 / ratio-1 splits fall back to the source model;
    // no downstream stage (density map, pseudo-labels, fine-tuning) runs,
    // so they cannot divide by an empty set.
    TASFAR_LOG(kWarning)
        << "TASFAR skipped: confident=" << split.confident.size()
        << " uncertain=" << split.uncertain.size();
    static obs::Counter* const kSkipped =
        obs::Registry::Get().GetCounter("tasfar.adapt.skipped");
    kSkipped->Increment();
    report.target_model = source_model->CloneSequential();
    report.skipped = true;
    return report;
  }

  std::vector<McPrediction> confident_preds, uncertain_preds;
  confident_preds.reserve(split.confident.size());
  for (size_t i : split.confident) {
    confident_preds.push_back(report.predictions[i]);
  }
  uncertain_preds.reserve(split.uncertain.size());
  for (size_t i : split.uncertain) {
    uncertain_preds.push_back(report.predictions[i]);
  }

  // 2. Label distribution estimation (Alg. 2).
  LabelDistributionEstimator estimator(calibration.qs_per_dim,
                                       kTasfarErrorModel);
  std::vector<GridSpec> axes =
      estimator.AutoAxes(confident_preds, options_.grid_cell_size);
  report.density_map.emplace(estimator.Estimate(confident_preds, axes,
                                                &report.density_mean_sigma));
  const double mass = report.density_map->TotalMass();
  if (TASFAR_FAILPOINT("density.degenerate") || !std::isfinite(mass) ||
      mass <= 0.0) {
    fall_back("degenerate label-density map (total mass " +
              std::to_string(mass) + ")");
    return report;
  }

  // 3. Pseudo-label generation (Alg. 3). Non-finite pseudo-labels (or
  // credibilities) drop with their samples; fine-tuning proceeds on the
  // survivors unless nothing survives.
  PseudoLabelGenerator generator(&report.density_map.value(), &estimator,
                                 calibration.tau);
  report.pseudo_labels = generator.GenerateAll(uncertain_preds);
  {
    size_t kept = 0;
    for (size_t i = 0; i < report.pseudo_labels.size(); ++i) {
      if (!FinitePseudoLabel(report.pseudo_labels[i])) continue;
      if (kept != i) {
        report.pseudo_labels[kept] = std::move(report.pseudo_labels[i]);
        split.uncertain[kept] = split.uncertain[i];
      }
      ++kept;
    }
    if (kept < report.pseudo_labels.size()) {
      TASFAR_LOG(kWarning) << "dropped "
                           << report.pseudo_labels.size() - kept
                           << " non-finite pseudo-labels";
      static obs::Counter* const kDroppedLabels = obs::Registry::Get()
          .GetCounter("tasfar.guard.dropped_pseudo_labels");
      kDroppedLabels->Increment(
          static_cast<uint64_t>(report.pseudo_labels.size() - kept));
      report.pseudo_labels.resize(kept);
      split.uncertain.resize(kept);
      report.uncertain_indices = split.uncertain;
      report.num_uncertain = kept;
      if (kept == 0) {
        fall_back("every pseudo-label is non-finite");
        return report;
      }
    }
  }

  // 4. Weighted fine-tuning (Eq. 22) with confident replay.
  Tensor uncertain_inputs = GatherFirstDim(target_inputs, split.uncertain);
  Tensor confident_inputs = GatherFirstDim(target_inputs, split.confident);
  // Replay targets are the deterministic source predictions (ŷ = ỹ).
  Tensor confident_targets({split.confident.size(),
                            calibration.qs_per_dim.size()});
  for (size_t i = 0; i < confident_preds.size(); ++i) {
    for (size_t d = 0; d < confident_preds[i].mean.size(); ++d) {
      confident_targets.At(i, d) = confident_preds[i].mean[d];
    }
  }
  AdaptationTrainer trainer(options_.adaptation);
  AdaptationResult result =
      trainer.Run(*source_model, uncertain_inputs, report.pseudo_labels,
                  confident_inputs, confident_targets, rng);
  report.history = std::move(result.history);
  report.diverged = result.diverged;
  report.rolled_back = result.rolled_back;
  if (result.diverged && !result.rolled_back) {
    fall_back("training diverged with no rollback snapshot");
    return report;
  }
  if (!AllParamsFinite(result.model.get())) {
    fall_back("adapted model has non-finite parameters");
    return report;
  }
  report.target_model = std::move(result.model);
  return report;
}

}  // namespace tasfar
