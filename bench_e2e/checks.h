#ifndef TASFAR_BENCH_E2E_CHECKS_H_
#define TASFAR_BENCH_E2E_CHECKS_H_

#include <string>
#include <vector>

#include "core/tasfar.h"
#include "serve/client.h"

namespace bench {

using tasfar::McPrediction;
using tasfar::Sequential;
using tasfar::SourceCalibration;
using tasfar::TasfarReport;
using tasfar::Tensor;
namespace serve = tasfar::serve;

// Output checks. Each returns "" when the output passes and a one-line
// reason otherwise. Every check recomputes its expectation from the
// program's inputs or tests a property the method guarantees; none holds a
// stored copy of an earlier output, so none depends on the seed, thread
// count, run length or call order.

/// τ is the η-quantile of the source calibration uncertainties: the share
/// of uncertainties at or below τ lies within 2/n of η.
std::string CheckTau(const std::vector<double>& calibration_uncertainties,
                     double tau, double eta);

/// The confident and uncertain indices partition the finite predictions,
/// and u ≤ τ holds for exactly the confident ones.
std::string CheckPartition(const TasfarReport& report);

/// Largest per-cell difference CheckDensityMap tolerates between the map
/// and its recomputation.
inline constexpr double kDensityCellTolerance = 1e-12;

/// The density map equals a recomputation from the confident predictions
/// (Eq. 10-12: Gaussian-CDF cell integrals with σ = Q_s(u) from SigmaFor,
/// divided by |SET_C|) within kDensityCellTolerance per cell, and its mass
/// lies in [0.9973^dims, 1] (AutoAxes pads every prediction by 3σ). An
/// adaptation that was neither skipped nor fell back must have a map.
std::string CheckDensityMap(const TasfarReport& report,
                            const SourceCalibration& calibration);

/// One pseudo-label per surviving uncertain row with finite credibility
/// ≥ 0; a fallback label equals its prediction and has credibility 0;
/// every other label lies within 3σ of its prediction in each dimension
/// and inside the grid. An adaptation that was neither skipped nor fell
/// back must have a map and so one label per uncertain row.
std::string CheckPseudoLabels(const TasfarReport& report,
                              const SourceCalibration& calibration);

/// Every adapted parameter is finite; a skipped or fallen-back adaptation
/// returns a model whose PredictMean on `probe` equals the source's.
std::string CheckAdaptedModel(const TasfarReport& report,
                              Sequential* source_model, const Tensor& probe);

/// All report checks above, in order; the first failure wins.
std::string CheckAdaptReport(const TasfarReport& report,
                             const SourceCalibration& calibration,
                             Sequential* source_model, const Tensor& probe);

/// A served response has one prediction per row of `out_dim` finite means
/// and finite std ≥ 0, and `from_adapted` equals `expect_adapted`.
std::string CheckServedShape(const serve::ClientPrediction& served,
                             size_t rows, size_t out_dim,
                             bool expect_adapted);

/// Served values are byte-identical to `reference` (an in-process
/// estimator over the same model, backend, seed and call index).
std::string CheckServedEqual(const serve::ClientPrediction& served,
                             const std::vector<McPrediction>& reference);

}  // namespace bench

#endif  // TASFAR_BENCH_E2E_CHECKS_H_
