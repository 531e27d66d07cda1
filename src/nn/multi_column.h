#ifndef TASFAR_NN_MULTI_COLUMN_H_
#define TASFAR_NN_MULTI_COLUMN_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/sequential.h"

namespace tasfar {

/// Parallel container: feeds the same input through several branches and
/// concatenates their rank-2 outputs along the feature dimension.
///
/// This realizes the multi-column topology of MCNN (the paper's crowd-
/// counting baseline), whose columns use different receptive-field sizes
/// and are fused before the counting head.
class MultiColumn : public Layer {
 public:
  MultiColumn() = default;

  /// Appends a branch, taking ownership.
  MultiColumn& AddBranch(std::unique_ptr<Sequential> branch);

  size_t NumBranches() const { return branches_.size(); }

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Tensor*> Params() override;
  std::vector<Tensor*> Grads() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override;
  /// Recurses with a distinct MixSeed(seed, branch_index) per branch.
  void ReseedStochastic(uint64_t seed) override;
  /// True when any branch holds stochastic state.
  bool HasStochasticState() const override;

 private:
  std::vector<std::unique_ptr<Sequential>> branches_;
  std::vector<size_t> branch_widths_;  ///< Output widths of the last forward.
};

}  // namespace tasfar

#endif  // TASFAR_NN_MULTI_COLUMN_H_
