#ifndef TASFAR_BASELINES_MMD_UDA_H_
#define TASFAR_BASELINES_MMD_UDA_H_

#include <vector>

#include "baselines/uda_scheme.h"

namespace tasfar {

/// Options of the MMD-based source-based UDA baseline (after Long et al.,
/// "Deep Transfer Learning with Joint Adaptation Networks").
struct MmdUdaOptions {
  size_t cut_layer = 0;     ///< Feature extractor = layers [0, cut_layer).
  size_t epochs = 30;
  double learning_rate = 5e-4;
};

/// Squared multi-kernel RBF MMD between two rank-2 feature batches.
/// Exposed for tests. `bandwidths` holds the γ of each kernel
/// k(a,b) = exp(-|a-b|² / (2γ²)).
double MmdSquared(const Tensor& feat_a, const Tensor& feat_b,
                  const std::vector<double>& bandwidths);

/// Gradient of MmdSquared with respect to `feat_b` (the target side).
Tensor MmdGradTarget(const Tensor& feat_a, const Tensor& feat_b,
                     const std::vector<double>& bandwidths);

/// Median pairwise Euclidean distance between rows of two batches, the
/// standard bandwidth heuristic.
double MedianPairwiseDistance(const Tensor& feat_a, const Tensor& feat_b);

/// MMD-based UDA: alternates supervised steps on labeled source batches
/// with alignment steps that pull target features toward the (detached)
/// source feature distribution under a multi-kernel MMD loss.
class MmdUda : public UdaScheme {
 public:
  explicit MmdUda(const MmdUdaOptions& options);

  std::unique_ptr<Sequential> Adapt(const Sequential& source_model,
                                    const UdaContext& context,
                                    Rng* rng) override;
  std::string name() const override { return "MMD"; }

 private:
  MmdUdaOptions options_;
};

}  // namespace tasfar

#endif  // TASFAR_BASELINES_MMD_UDA_H_
