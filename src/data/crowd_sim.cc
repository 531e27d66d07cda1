#include "data/crowd_sim.h"

#include <algorithm>
#include <cmath>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/multi_column.h"
#include "nn/sequential.h"

namespace tasfar {

CrowdSimulator::CrowdSimulator(const CrowdSimConfig& config, uint64_t seed)
    : config_(config), seed_(seed) {
  TASFAR_CHECK(config.image_size >= 8);
  TASFAR_CHECK(config.num_scenes_b > 0);
  Rng rng = Rng(seed_).Fork(11);
  // Part-B sites: sparse street, medium street, crowded street — the
  // crowded site keeps a stable pedestrian stream (tight distribution),
  // which is what makes TASFAR shine on scene 3 in the paper.
  for (size_t s = 0; s < config_.num_scenes_b; ++s) {
    CrowdSceneProfile scene;
    scene.id = static_cast<int>(s);
    const double level_means[] = {2.2, 2.9, 3.6};   // ≈ e^x people.
    const double level_stds[] = {0.35, 0.28, 0.15};
    scene.count_log_mean =
        s < 3 ? level_means[s] : rng.Uniform(2.5, 4.5);
    scene.count_log_std = s < 3 ? level_stds[s] : rng.Uniform(0.15, 0.4);
    // Appearance gap between Part A and Part B: slightly dimmer street
    // footage with stronger clutter and frequent lens glare.
    scene.brightness = rng.Uniform(-0.04, 0.0);
    scene.contrast = rng.Uniform(0.85, 1.0);
    scene.glare_prob = 0.30;
    scene.blob_sigma = rng.Uniform(0.9, 1.4);
    scene.clutter = rng.Uniform(0.05, 0.09);
    scene.center_x = rng.Uniform(0.35, 0.65);
    scene.center_y = rng.Uniform(0.35, 0.65);
    scene.spread = rng.Uniform(0.25, 0.4);
    part_b_scenes_.push_back(scene);
  }
}

Tensor CrowdSimulator::RenderImage(const CrowdSceneProfile& scene, int count,
                                   Rng* rng) const {
  TASFAR_CHECK(rng != nullptr);
  TASFAR_CHECK(count >= 0);
  const size_t s = config_.image_size;
  Tensor img({1, 1, s, s});
  // Background: brightness offset + clutter texture.
  for (size_t y = 0; y < s; ++y) {
    for (size_t x = 0; x < s; ++x) {
      img.At(0, 0, y, x) =
          scene.brightness + rng->Normal(0.0, scene.clutter);
    }
  }
  // Lens glare: a few large, bright artifacts the counter cannot tell
  // from crowd mass; the count label is unaffected, so glared images are
  // the high-error, high-uncertainty inputs the count prior can fix.
  if (rng->Bernoulli(scene.glare_prob)) {
    const int streaks = 3 + static_cast<int>(rng->UniformInt(4));
    for (int g = 0; g < streaks; ++g) {
      const double gx = rng->Uniform(0.1, 0.9) * static_cast<double>(s - 1);
      const double gy = rng->Uniform(0.1, 0.9) * static_cast<double>(s - 1);
      const double gsigma = rng->Uniform(2.0, 4.0);
      const double gint = rng->Uniform(3.0, 6.0);
      const int grad = static_cast<int>(std::ceil(3.0 * gsigma));
      for (int y = std::max(0, static_cast<int>(gy) - grad);
           y <= std::min(static_cast<int>(s) - 1,
                         static_cast<int>(gy) + grad);
           ++y) {
        for (int x = std::max(0, static_cast<int>(gx) - grad);
             x <= std::min(static_cast<int>(s) - 1,
                           static_cast<int>(gx) + grad);
             ++x) {
          const double d2 =
              (static_cast<double>(x) - gx) * (static_cast<double>(x) - gx) +
              (static_cast<double>(y) - gy) * (static_cast<double>(y) - gy);
          img.At(0, 0, static_cast<size_t>(y), static_cast<size_t>(x)) +=
              gint * std::exp(-d2 / (2.0 * gsigma * gsigma));
        }
      }
    }
  }
  // People: Gaussian blobs with scene-specific spatial bias. Rendering
  // adds intensity per person, so total brightness correlates with count —
  // the signal the counting network learns — while occlusion-like blob
  // overlap keeps the mapping non-trivial.
  const double sigma = scene.blob_sigma;
  const double two_sigma_sq = 2.0 * sigma * sigma;
  const int radius = static_cast<int>(std::ceil(3.0 * sigma));
  for (int p = 0; p < count; ++p) {
    const double cx = std::clamp(
        scene.center_x + rng->Normal(0.0, scene.spread), 0.02, 0.98);
    const double cy = std::clamp(
        scene.center_y + rng->Normal(0.0, scene.spread), 0.02, 0.98);
    const double px = cx * static_cast<double>(s - 1);
    const double py = cy * static_cast<double>(s - 1);
    const double intensity = scene.contrast * rng->Uniform(0.7, 1.0);
    const int x0 = std::max(0, static_cast<int>(px) - radius);
    const int x1 = std::min(static_cast<int>(s) - 1,
                            static_cast<int>(px) + radius);
    const int y0 = std::max(0, static_cast<int>(py) - radius);
    const int y1 = std::min(static_cast<int>(s) - 1,
                            static_cast<int>(py) + radius);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        const double d2 = (static_cast<double>(x) - px) * (static_cast<double>(x) - px) +
                          (static_cast<double>(y) - py) * (static_cast<double>(y) - py);
        img.At(0, 0, static_cast<size_t>(y), static_cast<size_t>(x)) +=
            intensity * std::exp(-d2 / two_sigma_sq);
      }
    }
  }
  return img;
}

namespace {

Dataset StackImages(std::vector<Tensor> images, std::vector<double> counts,
                    std::vector<int> groups, size_t image_size) {
  const size_t n = images.size();
  Dataset ds;
  ds.inputs = Tensor({n, 1, image_size, image_size});
  ds.targets = Tensor({n, 1});
  for (size_t i = 0; i < n; ++i) {
    std::copy(images[i].data(), images[i].data() + images[i].size(),
              ds.inputs.data() + i * images[i].size());
    ds.targets.At(i, 0) = counts[i];
  }
  ds.group_ids = std::move(groups);
  return ds;
}

}  // namespace

Dataset CrowdSimulator::GeneratePartA() {
  Rng rng = Rng(seed_).Fork(21);
  std::vector<Tensor> images;
  std::vector<double> counts;
  std::vector<int> groups;
  images.reserve(config_.part_a_images);
  for (size_t i = 0; i < config_.part_a_images; ++i) {
    // Part A: each image its own scene — bright, high-contrast, denser
    // crowds with wide variation (the "dense varied" source part).
    CrowdSceneProfile scene;
    scene.id = static_cast<int>(1000 + i);
    scene.brightness = rng.Uniform(-0.02, 0.04);
    scene.contrast = rng.Uniform(0.9, 1.1);
    scene.blob_sigma = rng.Uniform(0.9, 1.3);
    scene.clutter = rng.Uniform(0.03, 0.06);
    scene.center_x = rng.Uniform(0.3, 0.7);
    scene.center_y = rng.Uniform(0.3, 0.7);
    scene.spread = rng.Uniform(0.25, 0.45);
    const double log_count = rng.Uniform(1.5, 4.2);  // ~4 to ~66 people.
    const int count = std::max(0, rng.Poisson(std::exp(log_count)));
    images.push_back(RenderImage(scene, count, &rng));
    counts.push_back(static_cast<double>(count));
    groups.push_back(scene.id);
  }
  return StackImages(std::move(images), std::move(counts), std::move(groups),
                     config_.image_size);
}

Dataset CrowdSimulator::GeneratePartB() {
  Rng rng = Rng(seed_).Fork(22);
  std::vector<Tensor> images;
  std::vector<double> counts;
  std::vector<int> groups;
  images.reserve(config_.part_b_images);
  for (size_t i = 0; i < config_.part_b_images; ++i) {
    const CrowdSceneProfile& scene =
        part_b_scenes_[i % part_b_scenes_.size()];
    const double log_count =
        rng.Normal(scene.count_log_mean, scene.count_log_std);
    const int count = std::max(0, rng.Poisson(std::exp(log_count)));
    images.push_back(RenderImage(scene, count, &rng));
    counts.push_back(static_cast<double>(count));
    groups.push_back(scene.id);
  }
  return StackImages(std::move(images), std::move(counts), std::move(groups),
                     config_.image_size);
}

std::unique_ptr<Sequential> BuildCrowdModel(size_t image_size, Rng* rng) {
  TASFAR_CHECK(rng != nullptr);
  TASFAR_CHECK(image_size % 2 == 0);
  auto column = [&](size_t kernel, size_t pad) {
    auto branch = std::make_unique<Sequential>();
    branch->Emplace<Conv2d>(1, 4, kernel, rng, /*stride=*/1, pad);
    branch->Emplace<Relu>();
    branch->Emplace<MaxPool2d>(2);
    branch->Emplace<Conv2d>(4, 8, 3, rng, /*stride=*/1, /*padding=*/1);
    branch->Emplace<Relu>();
    branch->Emplace<GlobalAvgPool2d>();
    return branch;
  };
  auto columns = std::make_unique<MultiColumn>();
  columns->AddBranch(column(3, 1));  // Small receptive field (far people).
  columns->AddBranch(column(5, 2));  // Medium.
  columns->AddBranch(column(7, 3));  // Large (near people).
  auto model = std::make_unique<Sequential>();
  model->Add(std::move(columns));
  model->Emplace<Dropout>(kModelDropoutRate, /*seed=*/rng->NextU64());
  model->Emplace<Dense>(24, 32, rng);
  model->Emplace<Relu>();
  model->Emplace<Dropout>(kModelDropoutRate, /*seed=*/rng->NextU64());
  model->Emplace<Dense>(32, 1, rng);
  return model;
}

}  // namespace tasfar
