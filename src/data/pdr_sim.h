#ifndef TASFAR_DATA_PDR_SIM_H_
#define TASFAR_DATA_PDR_SIM_H_

#include <array>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace tasfar {

/// Walking-behaviour and device profile of one pedestrian.
///
/// The simulator replaces the paper's RoNIN IMU recordings. Each user has a
/// characteristic stride-length distribution and turning style (these shape
/// the ring-and-cluster label density maps of Fig. 2/6) and a device
/// distortion (channel gains/biases) that creates the input-domain gap the
/// source model suffers from.
struct PdrUserProfile {
  int id = 0;
  bool seen = false;       ///< Contributed to the source dataset.
  double stride_mean = 1.3;  ///< Metres per 2-s step window.
  double stride_std = 0.12;
  double turn_std = 0.18;       ///< Smooth heading drift per step (rad).
  double sharp_turn_prob = 0.05;  ///< Probability of a ~90° turn per step.
  double cadence = 1.8;           ///< Gait frequency (Hz).
  std::array<double, 6> channel_gain{1, 1, 1, 1, 1, 1};
  std::array<double, 6> channel_bias{0, 0, 0, 0, 0, 0};
  double noise_std = 0.05;        ///< Baseline sensor noise.
  double disturbance_prob = 0.1;  ///< Per-step chance of a noisy carriage
                                  ///< event (swinging phone, pocket shift).
  double disturbance_scale = 5.0;  ///< Noise multiplier during disturbance.
};

/// One walking session: `steps.inputs` is {steps, 6, window_len} of
/// IMU-like channels, `steps.targets` is {steps, 2} planar displacement in
/// metres per 2-s window.
struct PdrTrajectory {
  Dataset steps;
};

/// Everything known about one target user at adaptation time.
struct PdrUserData {
  PdrUserProfile profile;
  std::vector<PdrTrajectory> adaptation;  ///< 80% of trajectories.
  std::vector<PdrTrajectory> test;        ///< Held-out 20%.
};

/// Configuration of the pedestrian-dead-reckoning simulator, matching the
/// paper's setup: 15 seen users (small domain gap — same users, different
/// behaviour/carriage at target time) and 10 unseen users (large gap),
/// ~250 m of target trajectory per seen user and ~500 m per unseen user.
struct PdrSimConfig {
  size_t num_seen_users = 15;
  size_t num_unseen_users = 10;
  size_t window_len = 20;           ///< Samples per 2-s window (10 Hz).
  size_t source_steps_per_user = 240;
  size_t target_trajectories_seen = 5;
  size_t target_trajectories_unseen = 10;
  size_t steps_per_trajectory = 40;  ///< ~50 m per trajectory.
};

/// Deterministic generator for the PDR task.
class PdrSimulator {
 public:
  PdrSimulator(const PdrSimConfig& config, uint64_t seed);

  /// Pooled source dataset: steps of the seen users walking with their
  /// *source-time* behaviour. group_ids = user id.
  Dataset GenerateSourceDataset();

  /// Per-user target data. Seen users appear with shifted behaviour and
  /// mild device drift; unseen users have fresh profiles with larger
  /// distortions. Trajectories are pre-split into adaptation (80%) and
  /// test (20%) sets.
  std::vector<PdrUserData> GenerateTargetUsers();

  /// The source-time profiles of the seen users (for tests/inspection).
  const std::vector<PdrUserProfile>& seen_profiles() const {
    return seen_profiles_;
  }

  const PdrSimConfig& config() const { return config_; }

  /// Simulates one trajectory of `steps` windows under `profile`.
  /// Exposed for tests and the label-distribution figures.
  PdrTrajectory SimulateTrajectory(const PdrUserProfile& profile,
                                   size_t steps, Rng* rng) const;

 private:
  PdrUserProfile MakeSeenProfile(int id, Rng* rng) const;
  PdrUserProfile MakeUnseenProfile(int id, Rng* rng) const;
  /// Behaviour + device drift applied to a seen user at target time.
  PdrUserProfile ShiftForTarget(const PdrUserProfile& profile,
                                Rng* rng) const;

  PdrSimConfig config_;
  uint64_t seed_;
  std::vector<PdrUserProfile> seen_profiles_;
};

/// Builds the TCN-style PDR regressor (Conv1d backbone + dropout MLP head)
/// analogous in role to the paper's RoNIN baseline. Output: {batch, 2}.
/// All stochastic layers use `rng`/fixed seeds so construction is
/// reproducible.
std::unique_ptr<class Sequential> BuildPdrModel(size_t window_len, Rng* rng);

}  // namespace tasfar

#endif  // TASFAR_DATA_PDR_SIM_H_
