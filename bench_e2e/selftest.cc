// Self-test of the benchmark's output checks: each check must accept a
// real output of the program and reject the same output with one
// corruption. Exits 0 when every check behaves, 1 otherwise.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/label_distribution_estimator.h"
#include "data/dataset.h"
#include "data/housing_sim.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/rng.h"

namespace {

using namespace tasfar;  // NOLINT: a single-purpose test program.

int g_failures = 0;

/// `check` must pass on the intact output, fail after `corrupt`, and pass
/// again after `restore`.
void Expect(const std::string& what,
            const std::function<std::string()>& check,
            const std::function<void()>& corrupt,
            const std::function<void()>& restore) {
  const std::string intact = check();
  corrupt();
  const std::string corrupted = check();
  restore();
  const bool ok = intact.empty() && !corrupted.empty() && check().empty();
  if (!ok) ++g_failures;
  std::printf("%s %s\n  intact: %s\n  corrupted: %s\n", ok ? "PASS" : "FAIL",
              what.c_str(), intact.empty() ? "accepted" : intact.c_str(),
              corrupted.empty() ? "ACCEPTED" : corrupted.c_str());
}

}  // namespace

int main() {
  // A small housing task: source model, calibration, and one Adapt on a
  // mix of source-like and coastal rows.
  HousingSimConfig cfg;
  cfg.source_samples = 800;
  cfg.target_samples = 200;
  HousingSimulator sim(cfg, 11);
  Dataset source = sim.GenerateSource();
  Dataset target = sim.GenerateTarget();
  Normalizer normalizer;
  normalizer.Fit(source.inputs);
  const Tensor src_x = normalizer.Apply(source.inputs);
  const Tensor tgt_x = normalizer.Apply(target.inputs);
  Rng rng(3);
  std::unique_ptr<Sequential> model = BuildTabularModel(kNumHousingFeatures, &rng);
  Adam optimizer(1e-3);
  Trainer trainer(model.get(), &optimizer,
                  [](const Tensor& p, const Tensor& t, Tensor* g,
                     const std::vector<double>* w) {
                    return loss::Mse(p, t, g, w);
                  });
  TrainConfig tc;
  tc.epochs = 6;
  trainer.Fit(src_x, source.targets, tc, &rng);

  TasfarOptions options;
  options.adaptation.train.epochs = 5;
  std::vector<McPrediction> calib_preds =
      MakeEstimator(model.get(), EstimatorConfigFromOptions(options))
          ->Predict(src_x);
  SourceCalibration calibration =
      Tasfar(options).CalibrateFromPredictions(calib_preds, source.targets);
  std::vector<double> uncertainties;
  for (const McPrediction& p : calib_preds) {
    uncertainties.push_back(p.ScalarUncertainty());
  }

  std::vector<double> rows(src_x.data(), src_x.data() + 60 * kNumHousingFeatures);
  rows.insert(rows.end(), tgt_x.data(), tgt_x.data() + 140 * kNumHousingFeatures);
  const Tensor adapt_x({200, kNumHousingFeatures}, rows);
  Rng adapt_rng(5);
  TasfarReport report =
      Tasfar(options).Adapt(model.get(), calibration, adapt_x, &adapt_rng);
  if (report.skipped || report.fell_back || report.pseudo_labels.empty()) {
    std::printf("FAIL self-test input: the adaptation did not run\n");
    return 1;
  }
  const Tensor probe = adapt_x.SliceRows(0, 16);

  double saved_tau = calibration.tau;
  Expect(
      "tau: rejects a tau that is not the eta-quantile",
      [&] { return bench::CheckTau(uncertainties, calibration.tau, options.eta); },
      [&] {
        std::vector<double> sorted = uncertainties;
        std::sort(sorted.begin(), sorted.end());
        calibration.tau = sorted[sorted.size() / 2];  // The 0.5-quantile.
      },
      [&] { calibration.tau = saved_tau; });

  Expect(
      "partition: rejects a row moved across tau",
      [&] { return bench::CheckPartition(report); },
      [&] {
        report.uncertain_indices.push_back(report.confident_indices.back());
        report.confident_indices.pop_back();
      },
      [&] {
        report.confident_indices.push_back(report.uncertain_indices.back());
        report.uncertain_indices.pop_back();
      });

  double saved_cell = 0.0;
  const size_t cell = report.density_map->NumCells() / 2;
  Expect(
      "density_map: rejects one cell nudged by 1e-9",
      [&] { return bench::CheckDensityMap(report, calibration); },
      [&] {
        saved_cell = report.density_map->cell(cell);
        report.density_map->cell_mutable(cell) = saved_cell + 1e-9;
      },
      [&] { report.density_map->cell_mutable(cell) = saved_cell; });

  std::optional<DensityMap> saved_map;
  Expect(
      "density_map: rejects an adaptation that ran without a map",
      [&] { return bench::CheckDensityMap(report, calibration); },
      [&] { saved_map = std::exchange(report.density_map, std::nullopt); },
      [&] { report.density_map = std::move(saved_map); });

  std::vector<PseudoLabel> saved_labels;
  Expect(
      "pseudo_label: rejects an adaptation that ran without map or labels",
      [&] { return bench::CheckPseudoLabels(report, calibration); },
      [&] {
        saved_map = std::exchange(report.density_map, std::nullopt);
        saved_labels = std::exchange(report.pseudo_labels, {});
      },
      [&] {
        report.density_map = std::move(saved_map);
        report.pseudo_labels = std::move(saved_labels);
      });

  size_t k = 0;
  while (k < report.pseudo_labels.size() && report.pseudo_labels[k].fallback) ++k;
  const McPrediction& pred = report.predictions[report.uncertain_indices[k]];
  const LabelDistributionEstimator estimator(calibration.qs_per_dim,
                                             ErrorModelKind::kGaussian);
  const double saved_label = report.pseudo_labels[k].value[0];
  Expect(
      "pseudo_label: rejects a label pushed past 3 sigma",
      [&] { return bench::CheckPseudoLabels(report, calibration); },
      [&] {
        report.pseudo_labels[k].value[0] =
            pred.mean[0] + 3.01 * estimator.SigmaFor(pred, 0);
      },
      [&] { report.pseudo_labels[k].value[0] = saved_label; });

  Tensor* param = report.target_model->Params().front();
  const double saved_param = param->data()[0];
  Expect(
      "adapted_model: rejects a NaN parameter",
      [&] { return bench::CheckAdaptedModel(report, model.get(), probe); },
      [&] { param->data()[0] = std::numeric_limits<double>::quiet_NaN(); },
      [&] { param->data()[0] = saved_param; });

  // A served response from a live loopback server against the in-process
  // estimator at the same call index.
  serve::Server server(model.get(), &calibration, options, serve::ServerConfig{});
  if (!server.Start().ok()) {
    std::printf("FAIL self-test input: server did not start\n");
    return 1;
  }
  serve::Client client;
  const uint64_t session_seed = 42;
  if (!client.Connect(server.port()).ok() ||
      !client.CreateSession("selftest", session_seed, kNumHousingFeatures).ok()) {
    std::printf("FAIL self-test input: no session\n");
    return 1;
  }
  Result<serve::ClientPrediction> served =
      client.Predict("selftest", 4, kNumHousingFeatures, probe.data());
  if (!served.ok()) {
    std::printf("FAIL self-test input: predict failed\n");
    return 1;
  }
  serve::ClientPrediction response = served.value();
  EstimatorConfig ec = EstimatorConfigFromOptions(options);
  ec.batch_size = serve::SessionConfig{}.predict_batch;
  ec.seed = session_seed;
  const std::vector<McPrediction> reference =
      MakeEstimator(model.get(), ec)->Predict(probe.SliceRows(0, 4));
  client.Disconnect();
  server.Stop();

  uint64_t bits = 0;
  Expect(
      "served_equal: rejects one bit flipped in a served double",
      [&] { return bench::CheckServedEqual(response, reference); },
      [&] {
        std::memcpy(&bits, &response.predictions[1].mean[0], sizeof(bits));
        bits ^= 1;
        std::memcpy(&response.predictions[1].mean[0], &bits, sizeof(bits));
      },
      [&] {
        bits ^= 1;
        std::memcpy(&response.predictions[1].mean[0], &bits, sizeof(bits));
      });

  const double saved_std = response.predictions[2].std[0];
  Expect(
      "served: rejects a negative std",
      [&] { return bench::CheckServedShape(response, 4, 1, false); },
      [&] { response.predictions[2].std[0] = -1.0; },
      [&] { response.predictions[2].std[0] = saved_std; });

  std::printf("%s: %d of the checks misbehaved\n",
              g_failures == 0 ? "self-test passed" : "self-test FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
