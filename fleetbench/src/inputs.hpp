#pragma once

// Workload configuration and seeded input generation: the gradient frames
// a workload sends and the pull requests it issues. The program under test
// only ever sees the generated inputs; the seed stays here.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/core/config.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/nn/model.hpp"
#include "fleet/profiler/features.hpp"
#include "fleet/stats/distributions.hpp"
#include "fleet/stats/label_distribution.hpp"
#include "fleet/stats/rng.hpp"

namespace fleetbench {

/// One workload's shape, as recorded in fleetbench/workloads.json (run.py
/// passes every field on the command line).
struct WorkloadConfig {
  std::string name;
  std::size_t tenants = 1;
  std::string model = "mlp";     ///< mlp | cifar | mnist
  std::string payload = "int8";  ///< int8 | float32
  std::size_t planners = 1;
  std::size_t fold_shards = 1;
  std::size_t queue_capacity = 4096;
  /// Byte capacity of the ingest ring (LoopbackIngest's default is 4 MB).
  /// Large frames need more, so that a short stall of the serving threads
  /// does not make the open-loop leg refuse frames.
  std::size_t ring_mb = 4;
  /// Frames per saturation round (closed-loop flood, fixed count).
  std::size_t sat_round_frames = 4096;
  /// Open-loop Poisson arrival rate of gradient pushes (per second).
  double push_rate = 1000.0;
  /// Independent Poisson pull stream beside the pushes (per second), in the
  /// last kPullPhase of the open-loop leg; ignored when `protocol` is set
  /// (every arrival pulls first).
  double pull_rate = 0.0;
  /// FLeet protocol: each arrival calls handle_request, then pushes its
  /// gradient stamped with the assigned version after a compute delay.
  bool protocol = false;
  /// Distinct gradient payloads per workload (frames reuse them with their
  /// own header, labels and version).
  std::size_t pool_frames = 64;
  /// Frames per batch in the staged single-thread replay.
  std::size_t staged_batch = 32;
  /// Saturation-leg frames the traced run replays through the staged
  /// single-thread pipeline (the rest replay per session, untraced).
  std::size_t staged_frames = 4000;
  /// Warm-up keeps at most this many frames in flight.
  std::size_t warmup_window = 64;
  /// Open-loop leg windows for visibility and for requests; percentiles
  /// are per window, reported as the median across windows. Size them so a
  /// window holds at least 1000 samples (ten beyond its p99).
  std::size_t windows = 5;
  std::size_t request_windows = 3;
};

/// Share of --seconds spent in saturation rounds; the open-loop leg gets
/// the rest.
inline constexpr double kSaturationShare = 0.3;
/// Share of the open-loop leg, at its end, during which the independent
/// pull stream runs. Visibility is reported from the pushes due before it
/// (the generator runs each pull itself, so pulls would delay the pushes);
/// request latency from the pulls, beside the same push stream.
inline constexpr double kPullPhase = 0.5;
/// Open-loop validity bound: the run is invalid when the generator's p99
/// lag behind its schedule exceeds this.
inline constexpr double kLagBoundMs = 5.0;

/// The model a workload's sessions serve, initialised from `seed`.
std::unique_ptr<fleet::nn::Sequential> make_model(const std::string& kind,
                                                  std::uint64_t seed);

/// Everything that varies per frame. The frame's bytes are the pool
/// payload `pool` re-stamped with these header and label fields.
struct FrameSpec {
  std::uint32_t session = 0;
  std::uint32_t pool = 0;
  std::uint32_t label = 0;
  std::uint32_t mini_batch = 0;
  std::uint64_t task_version = 0;
};

/// Write a spec's model id, task version, mini-batch and label counts into
/// a pool frame in place (layout: fleet/net/wire.hpp). The label block
/// gets three quarters of the mini-batch on `label` and the rest on the
/// next class, so the similarity boost sees a varied distribution.
void stamp_frame(std::vector<std::uint8_t>& frame, const FrameSpec& spec,
                 std::uint64_t model_id, std::size_t n_classes);

/// Label distribution a stamped frame carries (what decode reconstructs).
fleet::stats::LabelDistribution frame_labels(const FrameSpec& spec,
                                             std::size_t n_classes);

/// Per-session deterministic frame stream: the j-th frame's staleness lag,
/// label, mini-batch and payload come from the session's own seeded
/// stream, whatever the timing. The task version is stamped at send time
/// as (frames already sent to the session) - lag, clamped at 0, so with
/// K = 1 every frame is folded at staleness exactly lag.
class FrameSource {
 public:
  FrameSource(std::uint64_t seed, std::uint32_t session, std::size_t n_classes,
              std::size_t pool_frames);
  /// Next spec for a session that has already been sent `sent` frames.
  FrameSpec next(std::uint64_t sent);

 private:
  fleet::stats::Rng rng_;
  std::uint32_t session_;
  std::size_t pool_frames_;
  /// Fig-7-shaped staleness: a Gaussian body plus a long tail.
  fleet::stats::LongTailGaussianDistribution lag_;
  /// Per-session label skew (a few hot classes), so LD_global is uneven.
  std::vector<double> label_weights_;
};

/// One pull request's inputs.
struct RequestInput {
  std::string device_model;
  fleet::profiler::DeviceFeatures features;
  fleet::stats::LabelDistribution labels{1};
  std::uint32_t label = 0;
};

/// All seeded inputs of one run.
struct Inputs {
  std::size_t parameter_count = 0;
  std::size_t n_classes = 0;
  /// Encoded pool frames (templates; stamp a copy or in place).
  std::vector<std::vector<std::uint8_t>> pool;
  /// Offline I-Prof training dataset (the pretraining itself is set-up).
  std::vector<fleet::profiler::Observation> profile_dataset;
  /// Request pool the open-loop pulls draw from.
  std::vector<RequestInput> requests;
  std::uint64_t seed = 0;
};

Inputs make_inputs(const WorkloadConfig& config, std::uint64_t seed);

/// Session model seed derived from the run seed.
std::uint64_t model_seed(std::uint64_t seed, std::size_t session);

/// The server configuration every session runs with: AdaSGD, K = 1, the
/// default 4096-entry staleness window.
fleet::core::ServerConfig server_config();

}  // namespace fleetbench
