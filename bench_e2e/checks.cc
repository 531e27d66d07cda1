#include "checks.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/label_distribution_estimator.h"
#include "nn/trainer.h"

namespace bench {

using tasfar::BatchedForward;
using tasfar::DensityMap;
using tasfar::ErrorModelKind;
using tasfar::GridSpec;
using tasfar::LabelDistributionEstimator;
using tasfar::PseudoLabel;

namespace {

std::string Fail(const std::string& check, const std::string& why) {
  return check + ": " + why;
}

/// All digits of a double, so a corruption in the last bit shows.
std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool Finite(const McPrediction& p) {
  for (double v : p.mean) {
    if (!std::isfinite(v)) return false;
  }
  for (double v : p.std) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Probability mass of N(mean, sigma²) on [lo, hi].
double GaussianCellMass(double lo, double hi, double mean, double sigma) {
  const double inv = 1.0 / (sigma * std::sqrt(2.0));
  return 0.5 * (std::erfc(-(hi - mean) * inv) -
                std::erfc(-(lo - mean) * inv));
}

}  // namespace

std::string CheckTau(const std::vector<double>& calibration_uncertainties,
                     double tau, double eta) {
  const size_t n = calibration_uncertainties.size();
  if (n == 0) return Fail("tau", "no calibration uncertainties");
  size_t at_or_below = 0;
  for (double u : calibration_uncertainties) {
    if (u <= tau) ++at_or_below;
  }
  const double share = static_cast<double>(at_or_below) / static_cast<double>(n);
  if (std::fabs(share - eta) > 2.0 / static_cast<double>(n)) {
    return Fail("tau", "share at or below tau " + Num(share) +
                           " is not within 2/n of eta " +
                           Num(eta));
  }
  return "";
}

std::string CheckPartition(const TasfarReport& report) {
  const size_t n = report.predictions.size();
  std::vector<int> role(n, 0);  // 1 confident, 2 uncertain.
  const auto assign = [&](const std::vector<size_t>& indices, int r) {
    for (size_t i : indices) {
      if (i >= n || role[i] != 0) return false;
      role[i] = r;
    }
    return true;
  };
  if (!assign(report.confident_indices, 1) ||
      !assign(report.uncertain_indices, 2)) {
    return Fail("partition", "index out of range or listed twice");
  }
  for (size_t i = 0; i < n; ++i) {
    const McPrediction& p = report.predictions[i];
    const int expect =
        !Finite(p) ? 0 : (p.ScalarUncertainty() <= report.tau ? 1 : 2);
    if (role[i] != expect) {
      return Fail("partition", "row " + std::to_string(i) + " has u=" +
                                   Num(p.ScalarUncertainty()) +
                                   " against tau=" +
                                   Num(report.tau) +
                                   " but is on the wrong side");
    }
  }
  return "";
}

std::string CheckDensityMap(const TasfarReport& report,
                            const SourceCalibration& calibration) {
  const bool adapted = !report.skipped && !report.fell_back;
  if (!report.density_map.has_value()) {
    return adapted ? Fail("density_map", "an adaptation that ran has no map")
                   : "";
  }
  const DensityMap& map = *report.density_map;
  const size_t dims = map.num_dims();
  if (report.confident_indices.empty()) {
    return Fail("density_map", "map built without confident rows");
  }
  const LabelDistributionEstimator estimator(calibration.qs_per_dim,
                                             ErrorModelKind::kGaussian);
  std::vector<double> expect(map.NumCells(), 0.0);
  std::vector<std::vector<double>> axis_mass(dims);
  for (size_t i : report.confident_indices) {
    const McPrediction& p = report.predictions[i];
    for (size_t d = 0; d < dims; ++d) {
      const GridSpec& axis = map.axis(d);
      const double sigma = estimator.SigmaFor(p, d);
      axis_mass[d].resize(axis.num_cells);
      for (size_t c = 0; c < axis.num_cells; ++c) {
        axis_mass[d][c] = GaussianCellMass(axis.CellLo(c), axis.CellHi(c),
                                           p.mean[d], sigma);
      }
    }
    if (dims == 1) {
      for (size_t c = 0; c < expect.size(); ++c) expect[c] += axis_mass[0][c];
    } else {
      const size_t n1 = map.axis(1).num_cells;
      for (size_t a = 0; a < map.axis(0).num_cells; ++a) {
        for (size_t b = 0; b < n1; ++b) {
          expect[a * n1 + b] += axis_mass[0][a] * axis_mass[1][b];
        }
      }
    }
  }
  const double denominator =
      static_cast<double>(report.confident_indices.size());
  for (size_t c = 0; c < expect.size(); ++c) {
    const double want = expect[c] / denominator;
    if (!(std::fabs(map.cell(c) - want) <= kDensityCellTolerance)) {
      return Fail("density_map", "cell " + std::to_string(c) + " is " +
                                     Num(map.cell(c)) +
                                     ", recomputed " + Num(want));
    }
  }
  const double mass = map.TotalMass();
  const double lo = std::pow(0.9973, static_cast<double>(dims));
  if (!(mass >= lo && mass <= 1.0 + 1e-9)) {
    return Fail("density_map",
                "total mass " + Num(mass) + " outside [0.9973^dims, 1]");
  }
  return "";
}

std::string CheckPseudoLabels(const TasfarReport& report,
                              const SourceCalibration& calibration) {
  if (!report.density_map.has_value()) {
    if (!report.skipped && !report.fell_back) {
      return Fail("pseudo_label", "an adaptation that ran has no density map");
    }
    return report.pseudo_labels.empty()
               ? ""
               : Fail("pseudo_label", "labels without a density map");
  }
  if (report.pseudo_labels.size() != report.uncertain_indices.size()) {
    return Fail("pseudo_label", std::to_string(report.pseudo_labels.size()) +
                                    " labels for " +
                                    std::to_string(report.uncertain_indices.size()) +
                                    " uncertain rows");
  }
  const DensityMap& map = *report.density_map;
  const LabelDistributionEstimator estimator(calibration.qs_per_dim,
                                             ErrorModelKind::kGaussian);
  for (size_t k = 0; k < report.pseudo_labels.size(); ++k) {
    const PseudoLabel& label = report.pseudo_labels[k];
    const McPrediction& p = report.predictions[report.uncertain_indices[k]];
    const std::string where = "label " + std::to_string(k);
    if (!std::isfinite(label.credibility) || label.credibility < 0.0) {
      return Fail("pseudo_label", where + " has credibility " +
                                      Num(label.credibility));
    }
    if (label.value.size() != map.num_dims()) {
      return Fail("pseudo_label", where + " has the wrong dimension");
    }
    if (label.fallback) {
      if (label.value != p.mean || label.credibility != 0.0) {
        return Fail("pseudo_label",
                    where + " is a fallback but differs from its prediction");
      }
      continue;
    }
    for (size_t d = 0; d < map.num_dims(); ++d) {
      const double v = label.value[d];
      const double reach = 3.0 * estimator.SigmaFor(p, d) * (1.0 + 1e-9);
      const GridSpec& axis = map.axis(d);
      if (!(std::fabs(v - p.mean[d]) <= reach)) {
        return Fail("pseudo_label", where + " lies beyond 3 sigma of its "
                                            "prediction in dim " +
                                        std::to_string(d));
      }
      if (!(v >= axis.origin && v <= axis.RangeHi())) {
        return Fail("pseudo_label",
                    where + " lies outside the grid in dim " +
                        std::to_string(d));
      }
    }
  }
  return "";
}

std::string CheckAdaptedModel(const TasfarReport& report,
                              Sequential* source_model, const Tensor& probe) {
  if (report.target_model == nullptr) {
    return Fail("adapted_model", "no model returned");
  }
  for (Tensor* param : report.target_model->Params()) {
    if (!param->AllFinite()) {
      return Fail("adapted_model", "non-finite parameter");
    }
  }
  if (report.skipped || report.fell_back) {
    const Tensor adapted = BatchedForward(report.target_model.get(), probe);
    const Tensor source = BatchedForward(source_model, probe);
    if (adapted.size() != source.size() ||
        std::memcmp(adapted.data(), source.data(),
                    source.size() * sizeof(double)) != 0) {
      return Fail("adapted_model",
                  "skipped or fallen-back model differs from the source");
    }
  }
  return "";
}

std::string CheckAdaptReport(const TasfarReport& report,
                             const SourceCalibration& calibration,
                             Sequential* source_model, const Tensor& probe) {
  std::string why = CheckPartition(report);
  if (why.empty()) why = CheckDensityMap(report, calibration);
  if (why.empty()) why = CheckPseudoLabels(report, calibration);
  if (why.empty()) why = CheckAdaptedModel(report, source_model, probe);
  return why;
}

std::string CheckServedShape(const serve::ClientPrediction& served,
                             size_t rows, size_t out_dim,
                             bool expect_adapted) {
  if (served.predictions.size() != rows) {
    return Fail("served", std::to_string(served.predictions.size()) +
                              " predictions for " + std::to_string(rows) +
                              " rows");
  }
  for (const serve::WirePrediction& p : served.predictions) {
    if (p.mean.size() != out_dim || p.std.size() != out_dim) {
      return Fail("served", "prediction of the wrong dimension");
    }
    for (size_t d = 0; d < out_dim; ++d) {
      if (!std::isfinite(p.mean[d]) || !std::isfinite(p.std[d]) ||
          p.std[d] < 0.0) {
        return Fail("served", "non-finite mean or invalid std");
      }
    }
  }
  if (served.from_adapted != expect_adapted) {
    return Fail("served", std::string("from_adapted is ") +
                              (served.from_adapted ? "set" : "unset") +
                              (expect_adapted ? " before" : " after") +
                              " the adaptation completed");
  }
  return "";
}

std::string CheckServedEqual(const serve::ClientPrediction& served,
                             const std::vector<McPrediction>& reference) {
  if (served.predictions.size() != reference.size()) {
    return Fail("served_equal", "row count differs from the in-process run");
  }
  for (size_t i = 0; i < reference.size(); ++i) {
    const serve::WirePrediction& got = served.predictions[i];
    const McPrediction& want = reference[i];
    if (got.mean.size() != want.mean.size() ||
        got.std.size() != want.std.size() ||
        std::memcmp(got.mean.data(), want.mean.data(),
                    want.mean.size() * sizeof(double)) != 0 ||
        std::memcmp(got.std.data(), want.std.data(),
                    want.std.size() * sizeof(double)) != 0) {
      return Fail("served_equal", "row " + std::to_string(i) +
                                      " differs from the in-process "
                                      "estimator");
    }
  }
  return "";
}

}  // namespace bench
