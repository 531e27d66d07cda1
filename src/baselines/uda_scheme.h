#ifndef TASFAR_BASELINES_UDA_SCHEME_H_
#define TASFAR_BASELINES_UDA_SCHEME_H_

#include <memory>
#include <string>

#include "nn/sequential.h"
#include "util/rng.h"

namespace tasfar {

/// Data available to an adaptation scheme. Source-based UDA (MMD, ADV)
/// uses all three tensors; source-free schemes ignore the source pair
/// (Datafree consumes pre-computed source feature statistics instead, and
/// AUGfree uses only the target inputs).
struct UdaContext {
  const Tensor* source_inputs = nullptr;
  const Tensor* source_targets = nullptr;
  const Tensor* target_inputs = nullptr;  ///< Unlabeled.
};

/// Mini-batch size of every scheme's training steps except Datafree's,
/// capped by the rows available.
inline constexpr size_t kUdaBatchSize = 32;

/// Interface shared by the comparison schemes so the benches can sweep
/// them uniformly. Each scheme adapts a *clone* of the source model and
/// leaves the original untouched.
class UdaScheme {
 public:
  virtual ~UdaScheme() = default;

  /// Runs adaptation and returns the target model.
  virtual std::unique_ptr<Sequential> Adapt(const Sequential& source_model,
                                            const UdaContext& context,
                                            Rng* rng) = 0;

  /// Display name used in tables ("MMD", "ADV", "Datafree", "AUGfree").
  virtual std::string name() const = 0;
};

}  // namespace tasfar

#endif  // TASFAR_BASELINES_UDA_SCHEME_H_
