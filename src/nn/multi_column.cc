#include "nn/multi_column.h"

#include <algorithm>
#include <utility>

#include "tensor/workspace.h"
#include "util/rng.h"

namespace tasfar {

MultiColumn& MultiColumn::AddBranch(std::unique_ptr<Sequential> branch) {
  TASFAR_CHECK(branch != nullptr);
  branches_.push_back(std::move(branch));
  return *this;
}

Tensor MultiColumn::Forward(const Tensor& input, bool training) {
  TASFAR_CHECK_MSG(!branches_.empty(), "MultiColumn has no branches");
  std::vector<Tensor> outputs;
  outputs.reserve(branches_.size());
  branch_widths_.clear();
  size_t total_width = 0;
  size_t batch = 0;
  for (auto& branch : branches_) {
    Tensor out = branch->Forward(input, training);
    TASFAR_CHECK_MSG(out.rank() == 2,
                     "MultiColumn branches must emit {batch, features}");
    if (outputs.empty()) {
      batch = out.dim(0);
    } else {
      TASFAR_CHECK(out.dim(0) == batch);
    }
    branch_widths_.push_back(out.dim(1));
    total_width += out.dim(1);
    outputs.push_back(std::move(out));
  }
  // Every element is assigned below.
  Tensor fused = Workspace::ThreadLocal().NewTensor({batch, total_width});
  double* dst = fused.data();
  size_t offset = 0;
  for (const Tensor& out : outputs) {
    const size_t width = out.dim(1);
    const double* src = out.data();
    for (size_t b = 0; b < batch; ++b) {
      std::copy(src + b * width, src + (b + 1) * width,
                dst + b * total_width + offset);
    }
    offset += width;
  }
  return fused;
}

std::vector<Tensor> MultiColumn::SplitGrad(const Tensor& grad_output) const {
  TASFAR_CHECK_MSG(!branch_widths_.empty(), "Backward before Forward");
  TASFAR_CHECK(grad_output.rank() == 2);
  const size_t batch = grad_output.dim(0);
  const size_t cols = grad_output.dim(1);
  const double* src = grad_output.data();
  std::vector<Tensor> grads;
  grads.reserve(branches_.size());
  size_t offset = 0;
  Workspace& ws = Workspace::ThreadLocal();
  for (const size_t width : branch_widths_) {
    TASFAR_CHECK(offset + width <= cols);
    Tensor grad_branch = ws.NewTensor({batch, width});
    double* dst = grad_branch.data();
    for (size_t b = 0; b < batch; ++b) {
      const double* row = src + b * cols + offset;
      std::copy(row, row + width, dst + b * width);
    }
    offset += width;
    grads.push_back(std::move(grad_branch));
  }
  TASFAR_CHECK(offset == cols);
  return grads;
}

Tensor MultiColumn::Backward(const Tensor& grad_output) {
  const std::vector<Tensor> grads = SplitGrad(grad_output);
  Tensor grad_input;
  for (size_t k = 0; k < branches_.size(); ++k) {
    Tensor g = branches_[k]->Backward(grads[k]);
    if (k == 0) {
      grad_input = g;
    } else {
      grad_input += g;
    }
  }
  return grad_input;
}

void MultiColumn::BackwardParams(const Tensor& grad_output) {
  const std::vector<Tensor> grads = SplitGrad(grad_output);
  for (size_t k = 0; k < branches_.size(); ++k) {
    branches_[k]->BackwardParams(grads[k]);
  }
}

std::vector<Tensor*> MultiColumn::Params() {
  std::vector<Tensor*> out;
  for (auto& branch : branches_) {
    for (Tensor* p : branch->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> MultiColumn::Grads() {
  std::vector<Tensor*> out;
  for (auto& branch : branches_) {
    for (Tensor* g : branch->Grads()) out.push_back(g);
  }
  return out;
}

std::unique_ptr<Layer> MultiColumn::Clone() const {
  auto copy = std::make_unique<MultiColumn>();
  for (const auto& branch : branches_) {
    copy->AddBranch(branch->CloneSequential());
  }
  return copy;
}

void MultiColumn::ReseedStochastic(uint64_t seed) {
  for (size_t b = 0; b < branches_.size(); ++b) {
    branches_[b]->ReseedStochastic(MixSeed(seed, b));
  }
}

bool MultiColumn::HasStochasticState() const {
  for (const auto& branch : branches_) {
    if (branch->HasStochasticState()) return true;
  }
  return false;
}

std::string MultiColumn::Name() const {
  std::string out = "MultiColumn{";
  for (size_t i = 0; i < branches_.size(); ++i) {
    if (i > 0) out += " | ";
    out += branches_[i]->Name();
  }
  out += "}";
  return out;
}

}  // namespace tasfar
