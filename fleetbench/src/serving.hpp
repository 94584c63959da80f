#pragma once

// The real serving pipeline under load: one generator thread drives
// serialized gradient frames through LoopbackIngest into a multi-tenant
// ConcurrentFleetServer, and (open loop) issues pull requests beside them.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/net/ingest.hpp"
#include "fleet/runtime/concurrent_server.hpp"
#include "inputs.hpp"
#include "measure.hpp"

namespace fleetbench {

/// The system under test. Members destroy in reverse order: the ingest
/// front end closes first, then the server stops, then the models go.
struct Host {
  std::vector<std::unique_ptr<fleet::nn::Sequential>> models;
  std::unique_ptr<fleet::runtime::ConcurrentFleetServer> server;
  std::unique_ptr<fleet::net::LoopbackIngest> ingest;
  std::vector<fleet::core::ModelId> ids;
};

/// Host construction, I-Prof pretraining per session, session
/// registration and ingest construction — the set-up the benchmark times.
std::unique_ptr<Host> build_host(const WorkloadConfig& config,
                                 const Inputs& inputs);

/// The frames a run actually sent, per session in send order (= admission
/// order with one injector), plus where each leg starts.
struct SentLog {
  std::vector<std::vector<FrameSpec>> per_session;
  /// Per session: index of the first frame of the saturation leg.
  std::vector<std::size_t> sat_begin;
  /// Saturation-leg frames in global send order: (session, index).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sat_order;
};

/// Generator-side sender: stamps pool frames with per-session specs and
/// pushes them onto the ring, recording what was accepted.
class Sender {
 public:
  Sender(const WorkloadConfig& config, Inputs& inputs, Host& host);

  std::size_t sessions() const { return sources_.size(); }
  std::uint64_t sent(std::size_t session) const {
    return log_.per_session[session].size();
  }
  /// The next spec of a session's seeded stream (versions stamped against
  /// the frames already sent).
  FrameSpec next_spec(std::size_t session);
  /// Stamp `spec` into its pool frame (in place; the ring copies it).
  void stamp(const FrameSpec& spec);
  /// One try_send of the last stamped frame of `spec`; on success the spec
  /// is logged as sent. `record_sat` adds it to the saturation order.
  bool try_send(const FrameSpec& spec, bool record_sat);

  SentLog& log() { return log_; }
  const SentLog& log() const { return log_; }

 private:
  Inputs& inputs_;
  Host& host_;
  std::vector<FrameSource> sources_;
  SentLog log_;
};

/// Warm-up: closed loop, round-robin, at most `window` frames in flight,
/// until every session sent `per_session` frames — and received as many
/// pull requests, so both the aggregator's staleness window and the
/// controller's request history are full before anything is measured.
/// Drains before returning.
void warm_up(Host& host, Sender& sender, const Inputs& inputs,
             std::size_t window, std::size_t per_session);

struct SaturationResult {
  std::vector<double> untraced_gps;  ///< per round
  std::vector<double> traced_gps;    ///< per traced round (trace runs)
  std::size_t frames = 0;
  std::size_t ring_refusals = 0;     ///< closed-loop refusals (retried)
  /// Generator time per traced frame: stamping and try_send calls.
  double gen_stamp_ns = 0.0;
  double gen_send_ns = 0.0;
};

/// Saturation leg: rounds of `sat_round_frames` frames flooded through the
/// ring (refusals retried), each round timed from its first send until
/// every frame is folded and published. Runs at least `min_rounds` rounds
/// and stops once `budget_s` is used. With `spans`, rounds alternate
/// untraced/traced; traced rounds record spans around stamp and try_send.
SaturationResult run_saturation(const WorkloadConfig& config, Host& host,
                                Sender& sender, double budget_s,
                                std::size_t min_rounds, SpanRecorder* spans);

struct OpenLoopResult {
  TimedSamples visibility_ms;  ///< due time -> first seen visible
  TimedSamples request_us;     ///< due time -> handle_request returned
  std::vector<double> lag_us;   ///< every event: start - due
  std::vector<double> poll_us;  ///< gaps between polls of one session
  std::size_t pushes_attempted = 0;
  std::size_t push_refusals = 0;
  std::size_t requests = 0;
  std::size_t controller_rejects = 0;
  std::size_t processed = 0;   ///< gradients folded during the leg
  std::size_t publishes = 0;   ///< snapshots published during the leg
  double duration_s = 0.0;
  std::size_t queue_max_depth = 0;
  fleet::telemetry::HistogramSnapshot staleness;  ///< this leg only
  fleet::telemetry::HistogramSnapshot weight;     ///< this leg only
  double send_ns = 0.0;  ///< traced: try_send per accepted frame
};

/// Open-loop leg: Poisson pushes (and pulls) at fixed rates for
/// `duration_s`, each timed from its due time; the generator polls
/// current(id).version between due times to see each frame become visible.
OpenLoopResult run_open_loop(const WorkloadConfig& config, Host& host,
                             Sender& sender, const Inputs& inputs,
                             double duration_s, SpanRecorder* spans);

}  // namespace fleetbench
