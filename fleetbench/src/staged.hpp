#pragma once

// Staged replay: the frames a run sent, replayed through the serving
// layers' public functions on the benchmark's own threads — decode,
// GradientQueue push and drain, ModelSession::plan_process, fold
// submit/wait on a ShardedAggregator, publish_if_dirty. It is both the
// reference the correctness gate compares the served models against and,
// with spans, the per-layer attribution of the traced run.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fleet/runtime/gradient_queue.hpp"
#include "fleet/runtime/model_session.hpp"
#include "fleet/runtime/sharded_aggregator.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "serving.hpp"

namespace fleetbench {

/// Per-layer totals of one traced pipeline replay.
struct StagedResult {
  std::size_t frames = 0;
  std::size_t publishes = 0;
  double seconds = 0.0;
  /// Self time per layer, ns, summed over the replay.
  double decode_ns = 0.0;
  double push_ns = 0.0;
  double drain_ns = 0.0;
  double plan_ns = 0.0;
  double fold_ns = 0.0;
  double publish_ns = 0.0;
  double loop_ns = 0.0;  ///< the replay loop's own work (stamping, demux)
  /// Per planner group: drain + plan + fold + publish self time, ns.
  std::vector<double> planner_ns;
};

class StagedReplay {
 public:
  StagedReplay(const WorkloadConfig& config, const Inputs& inputs,
               std::size_t sessions);

  /// Replay frames [from[s], to[s]) of every session, sessions in parallel
  /// on up to `threads` threads (each session's frames in order, through
  /// decode, plan_process, fold and publish).
  void replay_sessions(const SentLog& log, const std::vector<std::size_t>& from,
                       const std::vector<std::size_t>& to, std::size_t threads);

  /// Replay `order` (session, index) on this thread through the full
  /// staged pipeline, including the standalone GradientQueue, in batches
  /// of `staged_batch` frames, recording spans into `spans` (which may be
  /// disabled).
  StagedResult replay_pipeline(
      const SentLog& log,
      std::span<const std::pair<std::uint32_t, std::uint32_t>> order,
      SpanRecorder& spans);

  std::span<const float> parameters(std::size_t session) {
    return models_[session]->parameters_view();
  }
  std::size_t version(std::size_t session) const {
    return sessions_[session]->version();
  }

 private:
  const WorkloadConfig& config_;
  const Inputs& inputs_;
  std::vector<std::unique_ptr<fleet::nn::Sequential>> models_;
  std::vector<std::unique_ptr<fleet::runtime::ModelSession>> sessions_;
};

}  // namespace fleetbench
