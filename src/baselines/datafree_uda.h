#ifndef TASFAR_BASELINES_DATAFREE_UDA_H_
#define TASFAR_BASELINES_DATAFREE_UDA_H_

#include <vector>

#include "baselines/uda_scheme.h"

namespace tasfar {

/// Per-feature-dimension soft histogram of extractor activations.
struct SoftHistogram {
  std::vector<double> centers;  ///< Bin centers.
  std::vector<double> mass;     ///< Normalized bin masses (sum 1).
  double bandwidth = 1.0;       ///< Kernel width of the soft binning.
};

/// The source feature statistics the Datafree scheme stores instead of the
/// source dataset (after Eastwood et al., "Source-free adaptation to
/// measurement shift via bottom-up feature restoration"): one soft
/// histogram per feature dimension at the cut layer.
struct DatafreeSourceStats {
  size_t cut_layer = 0;
  std::vector<SoftHistogram> histograms;
};

/// Options of the Datafree baseline.
struct DatafreeUdaOptions {
  size_t cut_layer = 0;
  size_t num_bins = 16;
  size_t epochs = 30;
  double learning_rate = 5e-4;
};

/// Soft-bins the values of one feature dimension: each value contributes a
/// softmax membership over the bins (differentiable counting). Exposed for
/// tests.
SoftHistogram ComputeSoftHistogram(const std::vector<double>& values,
                                   size_t num_bins);

/// Soft histogram of `values` on *fixed* bins (centers/bandwidth from a
/// reference histogram) — used to compare target batches against stored
/// source statistics.
std::vector<double> SoftHistogramMass(const std::vector<double>& values,
                                      const SoftHistogram& reference);

/// Source-free UDA via stored feature statistics: the scheme ships the
/// source model together with per-dimension feature histograms, then
/// fine-tunes the extractor so target batches reproduce those histograms.
/// No task supervision is available, so alignment quality is limited by
/// how much of the domain gap is visible in marginal feature statistics —
/// the weakness the paper's comparisons expose.
class DatafreeUda : public UdaScheme {
 public:
  explicit DatafreeUda(const DatafreeUdaOptions& options);

  /// Computes the stored statistics on the source side (called before
  /// "deployment"; the source data is discarded afterwards).
  DatafreeSourceStats ComputeStats(Sequential* source_model,
                                   const Tensor& source_inputs) const;

  /// Adapts using explicit stats (the genuine source-free entry point).
  std::unique_ptr<Sequential> AdaptWithStats(
      const Sequential& source_model, const DatafreeSourceStats& stats,
      const Tensor& target_inputs, Rng* rng) const;

  /// UdaScheme entry point: derives the stats from context.source_inputs
  /// (standing in for statistics computed before deployment), then runs
  /// AdaptWithStats. The source tensors are never used beyond that.
  std::unique_ptr<Sequential> Adapt(const Sequential& source_model,
                                    const UdaContext& context,
                                    Rng* rng) override;
  std::string name() const override { return "Datafree"; }

 private:
  DatafreeUdaOptions options_;
};

}  // namespace tasfar

#endif  // TASFAR_BASELINES_DATAFREE_UDA_H_
