// Golden end-to-end determinism: the full TASFAR pipeline — source
// training → calibration → confidence split → density map → pseudo-labels
// → weighted fine-tuning — on fixed-seed targets must be byte-identical
// across repeated runs and across thread counts. reproducibility_test.cc
// pins layer-level equality; this pins the whole pipeline: pseudo-label
// values, credibilities, and the serialized final weights are compared as
// exact doubles / exact bytes, no tolerances. Three fixtures cover every
// layer the task models use: the housing MLP (Dense), a crowd counter
// (Conv2d, MaxPool2d, GlobalAvgPool2d, MultiColumn) and a PDR regressor
// (Conv1d).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/tasfar.h"
#include "data/crowd_sim.h"
#include "data/housing_sim.h"
#include "data/pdr_sim.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "util/thread_pool.h"

namespace tasfar {
namespace {

/// Everything the pipeline produces, captured in comparable form.
struct GoldenRun {
  std::string name;
  std::string source_weights;   ///< SerializeParams of the trained source.
  std::string adapted_weights;  ///< SerializeParams of the adapted model.
  double tau = 0.0;
  std::vector<size_t> uncertain_indices;
  std::vector<double> pseudo_values;
  std::vector<double> credibilities;
  bool skipped = false;
  bool fell_back = false;
};

/// A trained source model with the source rows to calibrate it on and the
/// target rows to adapt it to.
struct Fixture {
  std::string name;
  std::unique_ptr<Sequential> model;
  Tensor source_x;
  Tensor source_y;
  Tensor target_x;
  TasfarOptions options;
};

void TrainSource(Sequential* model, const Tensor& x, const Tensor& y,
                 size_t epochs, Rng* rng) {
  Adam opt(1e-3);
  Trainer trainer(model, &opt,
                  [](const Tensor& p, const Tensor& t, Tensor* g,
                     const std::vector<double>* w) {
                    return loss::Mse(p, t, g, w);
                  });
  TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 32;
  trainer.Fit(x, y, tc, rng);
}

Fixture Housing() {
  HousingSimConfig sim_cfg;
  sim_cfg.source_samples = 240;
  sim_cfg.target_samples = 120;
  HousingSimulator sim(sim_cfg, /*seed=*/77);
  Dataset source = sim.GenerateSource();
  Dataset target = sim.GenerateTarget();
  Normalizer norm;
  norm.Fit(source.inputs);
  Fixture f;
  f.name = "housing";
  f.source_x = norm.Apply(source.inputs);
  f.source_y = source.targets;
  f.target_x = norm.Apply(target.inputs);
  Rng rng(101);
  f.model = BuildTabularModel(kNumHousingFeatures, &rng);
  TrainSource(f.model.get(), f.source_x, f.source_y, 8, &rng);
  f.options.mc_samples = 8;
  f.options.num_segments = 10;
  f.options.adaptation.train.epochs = 8;
  return f;
}

/// One street scene of 16×16 images; the counter regresses log1p(count).
Fixture Crowd() {
  CrowdSimConfig cfg;
  cfg.image_size = 16;
  cfg.part_a_images = 96;
  cfg.part_b_images = 48;
  cfg.num_scenes_b = 1;
  CrowdSimulator sim(cfg, /*seed=*/78);
  Dataset source = sim.GeneratePartA();
  source.targets.MapInPlace([](double y) { return std::log1p(y); });
  Fixture f;
  f.name = "crowd";
  f.source_x = source.inputs;
  f.source_y = source.targets;
  f.target_x = sim.GeneratePartB().inputs;
  Rng rng(102);
  f.model = BuildCrowdModel(cfg.image_size, &rng);
  TrainSource(f.model.get(), f.source_x, f.source_y, 4, &rng);
  f.options.mc_samples = 8;
  f.options.num_segments = 10;
  f.options.adaptation.train.epochs = 4;
  return f;
}

/// One unseen pedestrian's adaptation trajectories.
Fixture Pdr() {
  PdrSimConfig cfg;
  cfg.num_seen_users = 2;
  cfg.num_unseen_users = 1;
  cfg.source_steps_per_user = 100;
  cfg.steps_per_trajectory = 10;
  PdrSimulator sim(cfg, /*seed=*/79);
  Dataset source = sim.GenerateSourceDataset();
  const std::vector<PdrUserData> users = sim.GenerateTargetUsers();
  std::vector<Dataset> steps;
  for (const PdrTrajectory& t : users.back().adaptation) {
    steps.push_back(t.steps);
  }
  Fixture f;
  f.name = "pdr";
  f.source_x = source.inputs;
  f.source_y = source.targets;
  f.target_x = Concat(steps).inputs;
  Rng rng(103);
  f.model = BuildPdrModel(cfg.window_len, &rng);
  TrainSource(f.model.get(), f.source_x, f.source_y, 4, &rng);
  f.options.mc_samples = 8;
  f.options.num_segments = 10;
  f.options.adaptation.train.epochs = 4;
  return f;
}

using MakeFixture = Fixture (*)();
constexpr MakeFixture kFixtures[] = {Housing, Crowd, Pdr};

GoldenRun RunPipeline(MakeFixture make) {
  Fixture f = make();
  Tasfar tasfar(f.options);
  const SourceCalibration calib =
      tasfar.Calibrate(f.model.get(), f.source_x, f.source_y);
  Rng adapt_rng(202);
  TasfarReport report =
      tasfar.Adapt(f.model.get(), calib, f.target_x, &adapt_rng);

  GoldenRun run;
  run.name = f.name;
  run.source_weights = SerializeParams(f.model.get());
  run.adapted_weights = SerializeParams(report.target_model.get());
  run.tau = report.tau;
  run.uncertain_indices = report.uncertain_indices;
  for (const PseudoLabel& pl : report.pseudo_labels) {
    for (double v : pl.value) run.pseudo_values.push_back(v);
    run.credibilities.push_back(pl.credibility);
  }
  run.skipped = report.skipped;
  run.fell_back = report.fell_back;
  return run;
}

/// Exact comparison — serialized weights are hex-float strings, so string
/// equality is bit equality of every parameter.
void ExpectIdentical(const GoldenRun& a, const GoldenRun& b,
                     const std::string& what) {
  EXPECT_EQ(a.source_weights, b.source_weights) << what;
  EXPECT_EQ(a.adapted_weights, b.adapted_weights) << what;
  EXPECT_EQ(a.tau, b.tau) << what;
  EXPECT_EQ(a.uncertain_indices, b.uncertain_indices) << what;
  EXPECT_EQ(a.pseudo_values, b.pseudo_values) << what;
  EXPECT_EQ(a.credibilities, b.credibilities) << what;
}

class GoldenPipelineTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(0); }  // Restore default pool.
};

TEST_F(GoldenPipelineTest, RepeatedRunsAreByteIdentical) {
  for (MakeFixture make : kFixtures) {
    const GoldenRun first = RunPipeline(make);
    // The fixture must exercise the real pipeline, not a degenerate skip.
    ASSERT_FALSE(first.skipped) << first.name;
    ASSERT_FALSE(first.fell_back) << first.name;
    ASSERT_FALSE(first.pseudo_values.empty()) << first.name;
    ASSERT_NE(first.adapted_weights, first.source_weights) << first.name;
    const GoldenRun second = RunPipeline(make);
    ExpectIdentical(first, second, first.name + " repeat run");
  }
}

TEST_F(GoldenPipelineTest, ThreadCountDoesNotChangeAnyByte) {
  for (MakeFixture make : kFixtures) {
    SetNumThreads(1);
    const GoldenRun t1 = RunPipeline(make);
    ASSERT_FALSE(t1.skipped) << t1.name;
    ASSERT_FALSE(t1.fell_back) << t1.name;
    SetNumThreads(2);
    const GoldenRun t2 = RunPipeline(make);
    SetNumThreads(8);
    const GoldenRun t8 = RunPipeline(make);
    ExpectIdentical(t1, t2, t1.name + " 1 vs 2 threads");
    ExpectIdentical(t1, t8, t1.name + " 1 vs 8 threads");
  }
}

}  // namespace
}  // namespace tasfar
