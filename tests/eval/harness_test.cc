#include <gtest/gtest.h>

#include <cmath>

#include "data/crowd_sim.h"
#include "data/housing_sim.h"
#include "data/pdr_sim.h"
#include "eval/crowd_harness.h"
#include "eval/pdr_harness.h"
#include "eval/tabular_harness.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace tasfar {
namespace {

TEST(HarnessTest, PoolTrajectoriesConcatenatesSteps) {
  PdrSimConfig cfg;
  cfg.num_seen_users = 1;
  cfg.num_unseen_users = 0;
  PdrSimulator sim(cfg, 3);
  Rng rng(5);
  std::vector<PdrTrajectory> trajs;
  trajs.push_back(sim.SimulateTrajectory(sim.seen_profiles()[0], 7, &rng));
  trajs.push_back(sim.SimulateTrajectory(sim.seen_profiles()[0], 5, &rng));
  Dataset pooled = PdrHarness::PoolTrajectories(trajs);
  EXPECT_EQ(pooled.size(), 12u);
  EXPECT_EQ(pooled.inputs.dim(1), 6u);
  // The pooled windows preserve per-step data byte-for-byte.
  EXPECT_DOUBLE_EQ(pooled.targets.At(0, 0),
                   trajs[0].steps.targets.At(0, 0));
  EXPECT_DOUBLE_EQ(pooled.targets.At(7, 1),
                   trajs[1].steps.targets.At(0, 1));
}

TEST(HarnessTest, CutLayersPointInsideTheModels) {
  Rng rng(7);
  auto pdr = BuildPdrModel(20, &rng);
  EXPECT_GT(PdrModelCutLayer(), 0u);
  EXPECT_LT(PdrModelCutLayer(), pdr->NumLayers());
  auto crowd = BuildCrowdModel(16, &rng);
  EXPECT_GT(CrowdModelCutLayer(), 0u);
  EXPECT_LT(CrowdModelCutLayer(), crowd->NumLayers());
  auto tabular = BuildTabularModel(8, &rng);
  EXPECT_GT(TabularModelCutLayer(), 0u);
  EXPECT_LT(TabularModelCutLayer(), tabular->NumLayers());
}

TEST(HarnessTest, CutLayerFeaturesAreRank2) {
  // The alignment baselines require {batch, features} activations at the
  // cut; verify for each task model.
  Rng rng(11);
  auto pdr = BuildPdrModel(20, &rng);
  Tensor pdr_feat = pdr->ForwardTo(Tensor::RandomNormal({2, 6, 20}, &rng),
                                   PdrModelCutLayer(), false);
  EXPECT_EQ(pdr_feat.rank(), 2u);
  auto crowd = BuildCrowdModel(16, &rng);
  Tensor crowd_feat = crowd->ForwardTo(
      Tensor::RandomNormal({2, 1, 16, 16}, &rng), CrowdModelCutLayer(),
      false);
  EXPECT_EQ(crowd_feat.rank(), 2u);
  auto tabular = BuildTabularModel(8, &rng);
  Tensor tab_feat = tabular->ForwardTo(Tensor::RandomNormal({2, 8}, &rng),
                                       TabularModelCutLayer(), false);
  EXPECT_EQ(tab_feat.rank(), 2u);
}

TEST(HarnessTest, TabularHarnessStandardizesLabels) {
  HousingSimConfig sim_cfg;
  sim_cfg.source_samples = 400;
  sim_cfg.target_samples = 200;
  HousingSimulator sim(sim_cfg, 13);
  TabularHarnessConfig cfg;
  cfg.source_epochs = 2;
  cfg.tasfar.mc_samples = 3;
  TabularHarness harness(cfg, sim.GenerateSource(), sim.GenerateTarget());
  harness.Prepare();
  EXPECT_GT(harness.label_std(), 0.0);
  // The stored adaptation targets live in standardized space: roughly
  // zero-mean on the source scale (coastal prices sit above, so the mean
  // is positive but O(1)).
  double mean = harness.target_adapt().targets.Mean();
  EXPECT_LT(std::fabs(mean), 5.0);
}

TEST(HarnessTest, CrowdToCountsInvertsLogTraining) {
  CrowdHarnessConfig cfg;
  cfg.sim.image_size = 16;
  cfg.sim.part_a_images = 20;
  cfg.sim.part_b_images = 30;
  cfg.source_epochs = 1;
  cfg.tasfar.mc_samples = 3;
  CrowdHarness harness(cfg);
  harness.Prepare();
  Tensor log_out({2, 1}, {std::log1p(10.0), std::log1p(50.0)});
  Tensor counts = harness.ToCounts(log_out);
  EXPECT_NEAR(counts.At(0, 0), 10.0, 1e-9);
  EXPECT_NEAR(counts.At(1, 0), 50.0, 1e-9);
}

TEST(HarnessTest, CrowdToCountsClampsNegative) {
  CrowdHarnessConfig cfg;
  cfg.sim.image_size = 16;
  cfg.sim.part_a_images = 20;
  cfg.sim.part_b_images = 30;
  cfg.source_epochs = 1;
  cfg.tasfar.mc_samples = 3;
  CrowdHarness harness(cfg);
  harness.Prepare();
  Tensor log_out({1, 1}, {-3.0});
  EXPECT_DOUBLE_EQ(harness.ToCounts(log_out).At(0, 0), 0.0);
}

TEST(HarnessTest, PdrCalibrationSkipsAPoisonedPrediction) {
  // Under mc_dropout.poison the first calibration prediction comes back
  // NaN. The harness calibrates through Tasfar's finite filter, so τ and
  // every Q_s line stay finite.
  PdrHarnessConfig cfg;
  cfg.sim.num_seen_users = 2;
  cfg.sim.num_unseen_users = 1;
  cfg.source_epochs = 1;
  cfg.tasfar.mc_samples = 3;
  cfg.tasfar.num_segments = 10;
  PdrHarness harness(cfg);
  ASSERT_TRUE(failpoint::Configure("mc_dropout.poison").ok());
  harness.Prepare();
  failpoint::Disable();
  const SourceCalibration& calib = harness.calibration();
  EXPECT_TRUE(std::isfinite(calib.tau));
  ASSERT_EQ(calib.qs_per_dim.size(), 2u);
  for (size_t d = 0; d < calib.qs_per_dim.size(); ++d) {
    EXPECT_TRUE(std::isfinite(calib.qs_per_dim[d].line.slope)) << "dim " << d;
    EXPECT_TRUE(std::isfinite(calib.qs_per_dim[d].line.intercept))
        << "dim " << d;
  }
}

}  // namespace
}  // namespace tasfar
