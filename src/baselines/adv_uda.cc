#include "baselines/adv_uda.h"

#include <algorithm>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace tasfar {

namespace {

/// Hidden width of the domain discriminator.
constexpr size_t kDiscriminatorHidden = 16;

}  // namespace

AdvUda::AdvUda(const AdvUdaOptions& options) : options_(options) {
  TASFAR_CHECK(options.learning_rate > 0.0);
  TASFAR_CHECK(options.discriminator_lr > 0.0);
  TASFAR_CHECK(options.adversarial_weight >= 0.0);
}

std::unique_ptr<Sequential> AdvUda::Adapt(const Sequential& source_model,
                                          const UdaContext& context,
                                          Rng* rng) {
  TASFAR_CHECK(rng != nullptr);
  TASFAR_CHECK_MSG(context.source_inputs != nullptr &&
                       context.source_targets != nullptr &&
                       context.target_inputs != nullptr,
                   "ADV UDA is source-based: all tensors required");
  std::unique_ptr<Sequential> model = source_model.CloneSequential();
  const size_t cut = options_.cut_layer;
  TASFAR_CHECK_MSG(cut > 0 && cut < model->NumLayers(),
                   "cut_layer must be inside the network");

  const Tensor& xs = *context.source_inputs;
  const Tensor& ys = *context.source_targets;
  const Tensor& xt = *context.target_inputs;
  const size_t ns = xs.dim(0), nt = xt.dim(0);
  const size_t batch = std::min({kUdaBatchSize, ns, nt});
  TASFAR_CHECK(batch > 0);

  // Probe the feature width to size the discriminator.
  std::vector<size_t> probe_idx{0};
  const size_t feat_dim =
      model->ForwardTo(GatherFirstDim(xs, probe_idx), cut, false).dim(1);

  Sequential discriminator;
  discriminator.Emplace<Dense>(feat_dim, kDiscriminatorHidden, rng);
  discriminator.Emplace<Relu>();
  discriminator.Emplace<Dense>(kDiscriminatorHidden, 1, rng);
  discriminator.Emplace<Sigmoid>();

  // SGD for the pretrained regressor (Adam drift, see
  // AdaptationTrainConfig); the freshly initialized discriminator still
  // uses Adam.
  Sgd model_opt(options_.learning_rate, /*momentum=*/0.9);
  Adam disc_opt(options_.discriminator_lr);

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const std::vector<size_t> s_order = rng->Permutation(ns);
    const std::vector<size_t> t_order = rng->Permutation(nt);
    const size_t steps = std::min(ns, nt) / batch;
    for (size_t step = 0; step < steps; ++step) {
      std::vector<size_t> s_idx(s_order.begin() + step * batch,
                                s_order.begin() + (step + 1) * batch);
      std::vector<size_t> t_idx(t_order.begin() + step * batch,
                                t_order.begin() + (step + 1) * batch);
      Tensor xs_b = GatherFirstDim(xs, s_idx);
      Tensor ys_b = GatherFirstDim(ys, s_idx);
      Tensor xt_b = GatherFirstDim(xt, t_idx);

      // (a) Supervised step on the source batch.
      Tensor pred = model->Forward(xs_b, /*training=*/true);
      Tensor grad;
      loss::Mse(pred, ys_b, &grad, nullptr);
      model->ZeroGrads();
      model->BackwardParams(grad);
      model_opt.Step(model->Params(), model->Grads());

      // (b) Discriminator step on detached features: source -> 1,
      // target -> 0.
      Tensor feat_s = model->ForwardTo(xs_b, cut, /*training=*/false);
      Tensor feat_t = model->ForwardTo(xt_b, cut, /*training=*/false);
      {
        Tensor prob_s = discriminator.Forward(feat_s, /*training=*/true);
        Tensor ones = Tensor::Ones(prob_s.shape());
        Tensor g_s;
        loss::BinaryCrossEntropy(prob_s, ones, &g_s);
        discriminator.ZeroGrads();
        discriminator.BackwardParams(g_s);
        disc_opt.Step(discriminator.Params(), discriminator.Grads());

        Tensor prob_t = discriminator.Forward(feat_t, /*training=*/true);
        Tensor zeros = Tensor::Zeros(prob_t.shape());
        Tensor g_t;
        loss::BinaryCrossEntropy(prob_t, zeros, &g_t);
        discriminator.ZeroGrads();
        discriminator.BackwardParams(g_t);
        disc_opt.Step(discriminator.Params(), discriminator.Grads());
      }

      // (c) Adversarial step: re-extract target features with gradients,
      // push the discriminator toward "source" (label 1) and backprop the
      // feature gradient into the extractor only.
      Tensor feat_t_live = model->ForwardTo(xt_b, cut, /*training=*/true);
      Tensor prob = discriminator.Forward(feat_t_live, /*training=*/false);
      Tensor ones = Tensor::Ones(prob.shape());
      Tensor g_prob;
      loss::BinaryCrossEntropy(prob, ones, &g_prob);
      discriminator.ZeroGrads();
      Tensor g_feat = discriminator.Backward(g_prob);
      g_feat *= options_.adversarial_weight;
      model->ZeroGrads();
      model->BackwardFrom(g_feat, cut);
      model_opt.Step(model->Params(), model->Grads());
    }
  }
  return model;
}

}  // namespace tasfar
