#include "baselines/adv_uda.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/mmd_uda.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "util/rng.h"

namespace tasfar {
namespace {

std::unique_ptr<Sequential> SmallModel(Rng* rng) {
  auto m = std::make_unique<Sequential>();
  m->Emplace<Dense>(2, 8, rng);
  m->Emplace<Relu>();
  m->Emplace<Dense>(8, 1, rng);
  return m;
}

TEST(AdvUdaTest, ReturnsAdaptedClone) {
  Rng rng(1);
  auto source = SmallModel(&rng);
  Tensor xs = Tensor::RandomNormal({64, 2}, &rng);
  Tensor ys({64, 1});
  Tensor xt = Tensor::RandomNormal({64, 2}, &rng) + 1.0;
  AdvUdaOptions opts;
  opts.cut_layer = 2;
  opts.epochs = 2;
  AdvUda scheme(opts);
  UdaContext ctx{&xs, &ys, &xt};
  Rng adapt_rng(2);
  auto adapted = scheme.Adapt(*source, ctx, &adapt_rng);
  ASSERT_NE(adapted, nullptr);
  EXPECT_NE(adapted.get(), source.get());
  // Source model params untouched; adapted params moved.
  Tensor p_src = *source->Params()[0];
  Tensor p_adp = *adapted->Params()[0];
  EXPECT_GT(p_src.MaxAbsDiff(p_adp), 0.0);
}

TEST(AdvUdaTest, ReducesFeatureDiscrepancy) {
  Rng rng(3);
  auto source = SmallModel(&rng);
  Tensor xs = Tensor::RandomNormal({128, 2}, &rng);
  Tensor ys({128, 1});
  for (size_t i = 0; i < 128; ++i) ys.At(i, 0) = xs.At(i, 0);
  Tensor xt = Tensor::RandomNormal({128, 2}, &rng) + 2.0;

  AdvUdaOptions opts;
  opts.cut_layer = 2;
  opts.epochs = 80;
  opts.learning_rate = 5e-3;
  opts.adversarial_weight = 0.5;
  opts.discriminator_lr = 2e-3;
  AdvUda scheme(opts);
  UdaContext ctx{&xs, &ys, &xt};
  Rng adapt_rng(4);
  auto adapted = scheme.Adapt(*source, ctx, &adapt_rng);

  Tensor f_s_before = source->ForwardTo(xs, 2, false);
  Tensor f_t_before = source->ForwardTo(xt, 2, false);
  Tensor f_s_after = adapted->ForwardTo(xs, 2, false);
  Tensor f_t_after = adapted->ForwardTo(xt, 2, false);
  const double med = MedianPairwiseDistance(f_s_before, f_t_before);
  EXPECT_LT(MmdSquared(f_s_after, f_t_after, {med}),
            MmdSquared(f_s_before, f_t_before, {med}));
}

TEST(AdvUdaTest, KeepsSourceTaskUsable) {
  Rng rng(5);
  auto source = SmallModel(&rng);
  Tensor xs = Tensor::RandomNormal({128, 2}, &rng);
  Tensor ys({128, 1});
  for (size_t i = 0; i < 128; ++i) {
    ys.At(i, 0) = xs.At(i, 0) - xs.At(i, 1);
  }
  // Quick supervised pre-training via the scheme's own supervised steps:
  // run ADV with zero adversarial weight first, which is pure supervised
  // fine-tuning.
  AdvUdaOptions pre;
  pre.cut_layer = 2;
  pre.epochs = 20;
  pre.adversarial_weight = 0.0;
  AdvUda pretrainer(pre);
  Tensor xt = Tensor::RandomNormal({64, 2}, &rng);
  UdaContext ctx{&xs, &ys, &xt};
  Rng r1(6);
  auto pretrained = pretrainer.Adapt(*source, ctx, &r1);

  AdvUdaOptions opts;
  opts.cut_layer = 2;
  opts.epochs = 6;
  opts.adversarial_weight = 0.1;
  AdvUda scheme(opts);
  Rng r2(7);
  auto adapted = scheme.Adapt(*pretrained, ctx, &r2);
  // The adversarial pressure perturbs but must not destroy the task: the
  // supervised steps keep source error within a modest factor of the
  // pretrained error.
  Tensor pre_pred = pretrained->Forward(xs, false);
  const double pre_mse = loss::Mse(pre_pred, ys, nullptr, nullptr);
  Tensor pred = adapted->Forward(xs, false);
  EXPECT_LT(loss::Mse(pred, ys, nullptr, nullptr),
            std::max(0.5, 3.0 * pre_mse));
}

TEST(AdvUdaDeathTest, SourceFreeCallAborts) {
  Rng rng(8);
  auto source = SmallModel(&rng);
  AdvUdaOptions opts;
  opts.cut_layer = 2;
  AdvUda scheme(opts);
  Tensor xt({4, 2});
  UdaContext ctx{nullptr, nullptr, &xt};
  Rng r(9);
  EXPECT_DEATH(scheme.Adapt(*source, ctx, &r), "source-based");
}

TEST(AdvUdaDeathTest, CutOutsideNetworkAborts) {
  Rng rng(10);
  auto source = SmallModel(&rng);
  AdvUdaOptions opts;
  opts.cut_layer = 99;
  AdvUda scheme(opts);
  Tensor xs({4, 2}), ys({4, 1}), xt({4, 2});
  UdaContext ctx{&xs, &ys, &xt};
  Rng r(11);
  EXPECT_DEATH(scheme.Adapt(*source, ctx, &r), "cut_layer");
}

TEST(AdvUdaTest, NameIsAdv) {
  AdvUdaOptions opts;
  opts.cut_layer = 1;
  EXPECT_EQ(AdvUda(opts).name(), "ADV");
}

}  // namespace
}  // namespace tasfar
