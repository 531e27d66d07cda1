#include "uncertainty/estimator.h"

#include <cmath>

#include "uncertainty/ensemble.h"
#include "uncertainty/laplace.h"
#include "uncertainty/mc_dropout.h"
#include "util/check.h"

namespace tasfar {

double McPrediction::ScalarUncertainty() const {
  double s = 0.0;
  for (double v : std) s += v * v;
  return std::sqrt(s);
}

const char* UncertaintyBackendName(UncertaintyBackend backend) {
  switch (backend) {
    case UncertaintyBackend::kMcDropout:
      return "mc_dropout";
    case UncertaintyBackend::kDeepEnsemble:
      return "ensemble";
    case UncertaintyBackend::kLastLayerLaplace:
      return "laplace";
  }
  return "unknown";
}

bool ParseUncertaintyBackendName(const std::string& name,
                                 UncertaintyBackend* out) {
  TASFAR_CHECK(out != nullptr);
  if (name == "mc_dropout") {
    *out = UncertaintyBackend::kMcDropout;
    return true;
  }
  if (name == "ensemble") {
    *out = UncertaintyBackend::kDeepEnsemble;
    return true;
  }
  if (name == "laplace") {
    *out = UncertaintyBackend::kLastLayerLaplace;
    return true;
  }
  return false;
}

bool ParseUncertaintyBackendWire(uint8_t wire, UncertaintyBackend* out) {
  TASFAR_CHECK(out != nullptr);
  switch (wire) {
    case static_cast<uint8_t>(UncertaintyBackend::kMcDropout):
    case static_cast<uint8_t>(UncertaintyBackend::kDeepEnsemble):
    case static_cast<uint8_t>(UncertaintyBackend::kLastLayerLaplace):
      *out = static_cast<UncertaintyBackend>(wire);
      return true;
    default:
      return false;
  }
}

std::unique_ptr<UncertaintyEstimator> MakeEstimator(
    Sequential* model, const EstimatorConfig& config) {
  TASFAR_CHECK(model != nullptr);
  switch (config.backend) {
    case UncertaintyBackend::kMcDropout:
      return std::make_unique<McDropoutPredictor>(
          model, config.mc_samples, config.batch_size, config.seed);
    case UncertaintyBackend::kDeepEnsemble:
      return std::make_unique<DeepEnsemble>(DeepEnsemble::FromSource(
          model, config.ensemble_members, config.seed, config.batch_size));
    case UncertaintyBackend::kLastLayerLaplace:
      return std::make_unique<LastLayerLaplace>(model);
  }
  TASFAR_CHECK_MSG(false, "unknown uncertainty backend");
  return nullptr;
}

}  // namespace tasfar
