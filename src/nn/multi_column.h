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
  /// Sums the branches' input gradients.
  Tensor Backward(const Tensor& grad_output) override;
  /// Each branch gets the BackwardParams call; nothing is summed.
  void BackwardParams(const Tensor& grad_output) override;
  std::vector<Tensor*> Params() override;
  std::vector<Tensor*> Grads() override;
  std::unique_ptr<Layer> Clone() const override;
  std::string Name() const override;
  /// Recurses with a distinct MixSeed(seed, branch_index) per branch.
  void ReseedStochastic(uint64_t seed) override;
  /// True when any branch holds stochastic state.
  bool HasStochasticState() const override;

 private:
  /// Splits a fused {batch, features} gradient into one per branch.
  std::vector<Tensor> SplitGrad(const Tensor& grad_output) const;

  std::vector<std::unique_ptr<Sequential>> branches_;
  std::vector<size_t> branch_widths_;  ///< Output widths of the last forward.
};

}  // namespace tasfar

#endif  // TASFAR_NN_MULTI_COLUMN_H_
