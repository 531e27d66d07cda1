#ifndef TASFAR_DATA_CROWD_SIM_H_
#define TASFAR_DATA_CROWD_SIM_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace tasfar {

class Sequential;

/// Configuration of the image-based people-counting simulator, standing in
/// for the ShanghaiTech dataset of the paper: Part A (482 images, dense
/// varied scenes) is the source, Part B (716 images from street sites) the
/// target, with three target sites whose characteristic crowd levels give
/// the scene-correlated label distributions TASFAR exploits (Fig. 19/20).
struct CrowdSimConfig {
  size_t image_size = 32;     ///< Images are image_size × image_size.
  size_t part_a_images = 482;
  size_t part_b_images = 716;
  size_t num_scenes_b = 3;
};

/// Appearance + crowd-level parameters of one scene.
struct CrowdSceneProfile {
  int id = 0;
  double count_log_mean = 3.5;  ///< Characteristic crowd level (log scale).
  double count_log_std = 0.25;
  double brightness = 0.0;      ///< Background offset (appearance gap).
  double contrast = 1.0;        ///< Blob intensity scaling.
  double blob_sigma = 1.1;      ///< Person blob size in pixels.
  double clutter = 0.05;        ///< Background texture noise level.
  double center_x = 0.5;        ///< Spatial bias of the crowd.
  double center_y = 0.5;
  double spread = 0.35;         ///< Spatial spread of the crowd.
  /// Probability of lens glare contaminating an image: bright streaks the
  /// counter mistakes for crowd mass. Rare in the curated Part-A source
  /// images, frequent in the raw street footage of Part B — the
  /// heterogeneous part of the appearance gap.
  double glare_prob = 0.04;
};

/// Deterministic generator for the crowd-counting task. Inputs are
/// {n, 1, s, s} single-channel images; targets {n, 1} person counts.
class CrowdSimulator {
 public:
  CrowdSimulator(const CrowdSimConfig& config, uint64_t seed);

  /// Source dataset: Part A — many short-lived scenes with broadly varied,
  /// denser crowds. group_ids are per-image pseudo-scene ids (unused by
  /// training; the source pools everything).
  Dataset GeneratePartA();

  /// Target dataset: Part B — `num_scenes_b` street sites, each with a
  /// characteristic count level and appearance. group_ids = scene id.
  Dataset GeneratePartB();

  /// Scene profiles of Part B (for the per-scene analyses).
  const std::vector<CrowdSceneProfile>& part_b_scenes() const {
    return part_b_scenes_;
  }

  const CrowdSimConfig& config() const { return config_; }

  /// Renders one image with `count` people under `scene` (exposed for
  /// tests).
  Tensor RenderImage(const CrowdSceneProfile& scene, int count,
                     Rng* rng) const;

 private:
  CrowdSimConfig config_;
  uint64_t seed_;
  std::vector<CrowdSceneProfile> part_b_scenes_;
};

/// Builds the multi-column CNN counter (three conv columns with different
/// receptive fields, fused into a dropout MLP head), analogous in role to
/// the paper's MCNN baseline. Output: {batch, 1} count.
std::unique_ptr<Sequential> BuildCrowdModel(size_t image_size, Rng* rng);

}  // namespace tasfar

#endif  // TASFAR_DATA_CROWD_SIM_H_
