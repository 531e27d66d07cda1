#include "core/adaptation_trainer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/dense.h"
#include "nn/trainer.h"
#include "util/failpoint.h"

namespace tasfar {
namespace {

std::unique_ptr<Sequential> LinearModel(Rng* rng) {
  auto m = std::make_unique<Sequential>();
  m->Emplace<Dense>(1, 1, rng);
  return m;
}

PseudoLabel Pl(double value, double credibility) {
  PseudoLabel pl;
  pl.value = {value};
  pl.credibility = credibility;
  return pl;
}

AdaptationTrainConfig FastConfig() {
  AdaptationTrainConfig cfg;
  cfg.train.epochs = 300;
  cfg.train.batch_size = 16;
  cfg.train.early_stop_rel_drop = 0.0;
  cfg.learning_rate = 0.05;
  return cfg;
}

TEST(AdaptationTrainerTest, SourceModelUntouched) {
  Rng rng(1);
  auto source = LinearModel(&rng);
  const double w_before = (*source->Params()[0])[0];
  Tensor x({4, 1}, {1.0, 2.0, 3.0, 4.0});
  std::vector<PseudoLabel> pls{Pl(1, 1), Pl(2, 1), Pl(3, 1), Pl(4, 1)};
  AdaptationTrainer trainer(FastConfig());
  auto result = trainer.Run(*source, x, pls, Tensor(), Tensor(), &rng);
  EXPECT_DOUBLE_EQ((*source->Params()[0])[0], w_before);
  EXPECT_NE(result.model.get(), source.get());
}

TEST(AdaptationTrainerTest, FitsPseudoLabels) {
  Rng rng(2);
  auto source = LinearModel(&rng);
  Tensor x({20, 1});
  std::vector<PseudoLabel> pls;
  for (size_t i = 0; i < 20; ++i) {
    x.At(i, 0) = static_cast<double>(i) / 10.0;
    pls.push_back(Pl(2.0 * x.At(i, 0) + 1.0, 1.0));  // y = 2x + 1.
  }
  AdaptationTrainer trainer(FastConfig());
  auto result = trainer.Run(*source, x, pls, Tensor(), Tensor(), &rng);
  Tensor pred = result.model->Forward(Tensor({1, 1}, {0.5}), false);
  EXPECT_NEAR(pred.At(0, 0), 2.0, 0.1);
}

TEST(AdaptationTrainerTest, ZeroCredibilityLabelsIgnored) {
  Rng rng(3);
  auto source = LinearModel(&rng);
  // Conflicting pseudo-labels at the same input; only weight-1 counts.
  Tensor x({20, 1});
  std::vector<PseudoLabel> pls;
  for (size_t i = 0; i < 20; ++i) {
    x.At(i, 0) = 1.0;
    pls.push_back(i % 2 == 0 ? Pl(5.0, 1.0) : Pl(-100.0, 0.0));
  }
  AdaptationTrainer trainer(FastConfig());
  auto result = trainer.Run(*source, x, pls, Tensor(), Tensor(), &rng);
  Tensor pred = result.model->Forward(Tensor({1, 1}, {1.0}), false);
  EXPECT_NEAR(pred.At(0, 0), 5.0, 0.2);
}

TEST(AdaptationTrainerTest, ConfidentReplayIncluded) {
  Rng rng(5);
  auto source = LinearModel(&rng);
  // No uncertain data: training purely on replay keeps model consistent
  // with its own predictions at the replay points.
  Tensor cx({10, 1});
  for (size_t i = 0; i < 10; ++i) cx.At(i, 0) = static_cast<double>(i);
  Tensor cpred = source->Forward(cx, false);
  AdaptationTrainer trainer(FastConfig());
  auto result = trainer.Run(*source, Tensor(), {}, cx, cpred, &rng);
  Tensor after = result.model->Forward(cx, false);
  EXPECT_NEAR(after.MaxAbsDiff(cpred), 0.0, 0.05);
}

TEST(AdaptationTrainerTest, ReplayFightsForgetting) {
  Rng rng(6);
  auto source = LinearModel(&rng);
  (*source->Params()[0]).At(0, 0) = 1.0;  // y = x.
  (*source->Params()[1])[0] = 0.0;
  // Pseudo-labels push y(1) toward 3; replay anchors y(-1) at -1.
  Tensor ux({8, 1});
  std::vector<PseudoLabel> pls;
  for (size_t i = 0; i < 8; ++i) {
    ux.At(i, 0) = 1.0;
    pls.push_back(Pl(3.0, 1.0));
  }
  Tensor cx({8, 1});
  for (size_t i = 0; i < 8; ++i) cx.At(i, 0) = -1.0;
  Tensor cpred = source->Forward(cx, false);

  AdaptationTrainConfig no_replay = FastConfig();
  no_replay.include_confident = false;
  AdaptationTrainer t1(no_replay);
  auto without = t1.Run(*source, ux, pls, cx, cpred, &rng);

  AdaptationTrainer t2(FastConfig());
  auto with = t2.Run(*source, ux, pls, cx, cpred, &rng);

  const double drift_without = std::fabs(
      without.model->Forward(cx, false).At(0, 0) - cpred.At(0, 0));
  const double drift_with =
      std::fabs(with.model->Forward(cx, false).At(0, 0) - cpred.At(0, 0));
  EXPECT_LT(drift_with, drift_without);
}

TEST(AdaptationTrainerTest, HistoryRecordsLoss) {
  Rng rng(7);
  auto source = LinearModel(&rng);
  Tensor x({4, 1}, {1, 2, 3, 4});
  std::vector<PseudoLabel> pls{Pl(1, 1), Pl(2, 1), Pl(3, 1), Pl(4, 1)};
  AdaptationTrainConfig cfg = FastConfig();
  cfg.train.epochs = 10;
  AdaptationTrainer trainer(cfg);
  auto result = trainer.Run(*source, x, pls, Tensor(), Tensor(), &rng);
  EXPECT_EQ(result.history.size(), 10u);
  // Training reaches a loss at or below the first epoch's at some point
  // (the tail may oscillate once converged).
  double best = result.history.front().train_loss;
  for (const EpochStats& st : result.history) {
    best = std::min(best, st.train_loss);
  }
  EXPECT_LE(best, result.history.front().train_loss);
  EXPECT_LT(result.history.back().train_loss, 0.1);
}

TEST(AdaptationTrainerTest, HealthyRunDoesNotDivergeOrRollBack) {
  Rng rng(20);
  auto source = LinearModel(&rng);
  Tensor x({4, 1}, {1, 2, 3, 4});
  std::vector<PseudoLabel> pls{Pl(1, 1), Pl(2, 1), Pl(3, 1), Pl(4, 1)};
  AdaptationTrainer trainer(FastConfig());
  auto result = trainer.Run(*source, x, pls, Tensor(), Tensor(), &rng);
  EXPECT_FALSE(result.diverged);
  EXPECT_FALSE(result.rolled_back);
}

TEST(AdaptationTrainerChaosTest, InjectedDivergenceRollsBackToBestEpoch) {
  ASSERT_TRUE(failpoint::Configure("adaptation.diverge").ok());
  Rng rng(21);
  auto source = LinearModel(&rng);
  Tensor x({20, 1});
  std::vector<PseudoLabel> pls;
  for (size_t i = 0; i < 20; ++i) {
    x.At(i, 0) = static_cast<double>(i) / 10.0;
    pls.push_back(Pl(2.0 * x.At(i, 0) + 1.0, 1.0));
  }
  AdaptationTrainer trainer(FastConfig());
  auto result = trainer.Run(*source, x, pls, Tensor(), Tensor(), &rng);
  failpoint::Disable();
  EXPECT_TRUE(result.diverged);
  EXPECT_TRUE(result.rolled_back);
  // The rollback snapshot is the best epoch of an otherwise healthy run,
  // so the model is finite and still fits the pseudo-label line.
  for (Tensor* p : result.model->Params()) EXPECT_TRUE(p->AllFinite());
  Tensor pred = result.model->Forward(Tensor({1, 1}, {0.5}), false);
  EXPECT_NEAR(pred.At(0, 0), 2.0, 0.1);
}

TEST(AdaptationTrainerChaosTest, PoisonedStepsDivergeWithNoSnapshot) {
  // optimizer.step.poison at p=1 writes NaN into the weights on the very
  // first step — there is never a finite snapshot to roll back to, so the
  // result must advertise itself as unusable (core/tasfar.cc then falls
  // back to the source model).
  ASSERT_TRUE(failpoint::Configure("optimizer.step.poison").ok());
  Rng rng(22);
  auto source = LinearModel(&rng);
  Tensor x({4, 1}, {1, 2, 3, 4});
  std::vector<PseudoLabel> pls{Pl(1, 1), Pl(2, 1), Pl(3, 1), Pl(4, 1)};
  AdaptationTrainConfig cfg = FastConfig();
  cfg.train.epochs = 5;
  AdaptationTrainer trainer(cfg);
  auto result = trainer.Run(*source, x, pls, Tensor(), Tensor(), &rng);
  failpoint::Disable();
  EXPECT_TRUE(result.diverged);
  EXPECT_FALSE(result.rolled_back);
  // The source model itself is untouched by the fault.
  for (Tensor* p : source->Params()) EXPECT_TRUE(p->AllFinite());
}

TEST(AdaptationTrainerDeathTest, NothingToTrainOnAborts) {
  Rng rng(8);
  auto source = LinearModel(&rng);
  AdaptationTrainer trainer(FastConfig());
  EXPECT_DEATH(trainer.Run(*source, Tensor(), {}, Tensor(), Tensor(), &rng),
               "nothing to adapt on");
}

TEST(AdaptationTrainerDeathTest, LabelCountMismatchAborts) {
  Rng rng(9);
  auto source = LinearModel(&rng);
  AdaptationTrainer trainer(FastConfig());
  Tensor x({2, 1});
  EXPECT_DEATH(trainer.Run(*source, x, {Pl(0, 1)}, Tensor(), Tensor(), &rng),
               "");
}

}  // namespace
}  // namespace tasfar
