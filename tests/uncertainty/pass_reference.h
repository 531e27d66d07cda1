#ifndef TASFAR_TESTS_UNCERTAINTY_PASS_REFERENCE_H_
#define TASFAR_TESTS_UNCERTAINTY_PASS_REFERENCE_H_

// Reference for the trunk/head split of the stochastic-pass estimators
// (uncertainty/stochastic_passes.h): the whole-model pass loop they ran
// before the split, and models whose trunk ends in each place the split
// must handle.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/crowd_sim.h"
#include "data/housing_sim.h"
#include "data/pdr_sim.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/multi_column.h"
#include "nn/sequential.h"
#include "nn/trainer.h"
#include "uncertainty/estimator.h"
#include "util/rng.h"

namespace tasfar {

/// Every pass runs the whole model, batch by batch, on a fresh clone
/// reseeded to `pass_seeds[s]`; the passes reduce in ascending order.
inline std::vector<McPrediction> WholeModelPasses(
    Sequential* model, const Tensor& x, size_t batch_size, bool training,
    bool f32, const std::vector<uint64_t>& pass_seeds) {
  std::vector<Tensor> passes;
  for (uint64_t seed : pass_seeds) {
    std::unique_ptr<Sequential> replica = model->CloneSequential();
    replica->ReseedStochastic(seed);
    passes.push_back(
        f32 ? BatchedForwardF32(replica.get(), x, training, batch_size)
            : BatchedForward(replica.get(), x, training, batch_size));
  }
  Tensor sum(passes[0].shape());
  CopyInto(passes[0], &sum);
  Tensor sum_sq(passes[0].shape());
  MulInto(passes[0], passes[0], &sum_sq);
  Tensor sq(passes[0].shape());
  for (size_t s = 1; s < passes.size(); ++s) {
    AddInto(sum, passes[s], &sum);
    MulInto(passes[s], passes[s], &sq);
    AddInto(sum_sq, sq, &sum_sq);
  }
  const double inv = 1.0 / static_cast<double>(passes.size());
  std::vector<McPrediction> out(x.dim(0));
  for (size_t i = 0; i < out.size(); ++i) {
    for (size_t j = 0; j < sum.dim(1); ++j) {
      const double m = sum.At(i, j) * inv;
      double var = sum_sq.At(i, j) * inv - m * m;
      if (var < 0.0) var = 0.0;
      out[i].mean.push_back(m);
      out[i].std.push_back(std::sqrt(var));
    }
  }
  return out;
}

/// memcmp of every mean and std.
inline void ExpectSameBytes(const std::vector<McPrediction>& got,
                            const std::vector<McPrediction>& want,
                            const std::string& at) {
  ASSERT_EQ(got.size(), want.size()) << at;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].mean.size(), want[i].mean.size()) << at;
    ASSERT_EQ(got[i].std.size(), want[i].std.size()) << at;
    const size_t bytes = want[i].mean.size() * sizeof(double);
    EXPECT_EQ(std::memcmp(got[i].mean.data(), want[i].mean.data(), bytes), 0)
        << at << " row " << i << " mean";
    EXPECT_EQ(std::memcmp(got[i].std.data(), want[i].std.data(), bytes), 0)
        << at << " row " << i << " std";
  }
}

/// A model, the input shape of one row, and where its trunk must end.
struct SplitCase {
  std::string name;
  std::unique_ptr<Sequential> model;
  std::vector<size_t> row_shape;
  size_t trunk_layers;
};

/// Tabular MLP: Dense, Relu | Dropout, ...
inline SplitCase TabularCase(Rng* rng) {
  return {"tabular", BuildTabularModel(8, rng), {8}, 2};
}

/// Multi-column Conv2d counter: MultiColumn | Dropout, ...
inline SplitCase CrowdCase(Rng* rng) {
  return {"crowd", BuildCrowdModel(16, rng), {1, 16, 16}, 1};
}

/// Conv1d TCN: Conv1d, Relu, Conv1d, Relu, Flatten | Dropout, ...
inline SplitCase PdrCase(Rng* rng) {
  return {"pdr", BuildPdrModel(20, rng), {6, 20}, 5};
}

/// Dropout first: empty trunk.
inline SplitCase DropoutFirstCase(Rng* rng) {
  auto m = std::make_unique<Sequential>();
  m->Emplace<Dropout>(0.3, rng->NextU64());
  m->Emplace<Dense>(3, 8, rng);
  m->Emplace<Relu>();
  m->Emplace<Dense>(8, 2, rng);
  return {"dropout_first", std::move(m), {3}, 0};
}

/// Dropout inside a MultiColumn branch: the trunk stops before the
/// container, though the container's first layers are deterministic.
inline SplitCase BranchDropoutCase(Rng* rng) {
  auto plain = std::make_unique<Sequential>();
  plain->Emplace<Dense>(6, 4, rng);
  plain->Emplace<Relu>();
  auto noisy = std::make_unique<Sequential>();
  noisy->Emplace<Dense>(6, 5, rng);
  noisy->Emplace<Relu>();
  noisy->Emplace<Dropout>(0.25, rng->NextU64());
  auto columns = std::make_unique<MultiColumn>();
  columns->AddBranch(std::move(plain));
  columns->AddBranch(std::move(noisy));
  auto m = std::make_unique<Sequential>();
  m->Emplace<Dense>(3, 6, rng);
  m->Emplace<Relu>();
  m->Add(std::move(columns));
  m->Emplace<Dense>(9, 1, rng);
  return {"branch_dropout", std::move(m), {3}, 2};
}

/// No stochastic layer (a rate-0 Dropout is deterministic): the whole
/// model is trunk and every std is 0.
inline SplitCase NoDropoutCase(Rng* rng) {
  auto m = std::make_unique<Sequential>();
  m->Emplace<Dense>(3, 8, rng);
  m->Emplace<Relu>();
  m->Emplace<Dropout>(0.0, rng->NextU64());
  m->Emplace<Dense>(8, 1, rng);
  return {"no_dropout", std::move(m), {3}, 4};
}

inline std::vector<SplitCase> SplitCases(Rng* rng) {
  std::vector<SplitCase> cases;
  for (const auto& make :
       std::vector<std::function<SplitCase(Rng*)>>{
           TabularCase, CrowdCase, PdrCase, DropoutFirstCase,
           BranchDropoutCase, NoDropoutCase}) {
    cases.push_back(make(rng));
  }
  return cases;
}

/// `rows` rows of the case's input shape.
inline Tensor CaseInputs(const SplitCase& c, size_t rows, Rng* rng) {
  std::vector<size_t> shape = {rows};
  shape.insert(shape.end(), c.row_shape.begin(), c.row_shape.end());
  return Tensor::RandomNormal(shape, rng);
}

}  // namespace tasfar

#endif  // TASFAR_TESTS_UNCERTAINTY_PASS_REFERENCE_H_
