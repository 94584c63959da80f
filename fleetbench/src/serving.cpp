#include "serving.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <thread>
#include <chrono>

#include "fleet/profiler/iprof.hpp"

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace fleetbench {

using namespace fleet;

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
/// Minimum gap between two version-poll sweeps of the generator (each
/// sweep reads current(id) of every session with frames outstanding), so
/// polling cannot saturate the snapshot and registry cells the injector and
/// the planners also touch.
constexpr std::uint64_t kPollGapNs = 5000;
/// Mean worker compute delay between a protocol pull and its push.
constexpr double kComputeDelayMs = 20.0;
/// Generator sleep when nothing is due and the last poll is recent, and
/// how far away the next due event must be for it to sleep at all.
constexpr int kIdleSleepUs = 20;
constexpr std::uint64_t kSleepMarginNs = 60000;
/// Pause after the ring refused a closed-loop send before retrying.
constexpr std::uint64_t kRefusalBackoffNs = 20000;

void pause_for_ns(std::uint64_t ns) {
  const std::uint64_t until = now_ns() + ns;
  while (now_ns() < until) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

/// `after - before` for two cumulative snapshots of one histogram.
telemetry::HistogramSnapshot histogram_delta(
    const telemetry::HistogramSnapshot& after,
    const telemetry::HistogramSnapshot& before) {
  telemetry::HistogramSnapshot delta = after;
  if (before.count == 0) return delta;
  for (std::size_t i = 0; i < delta.counts.size(); ++i) {
    delta.counts[i] -= before.counts[i];
  }
  delta.count -= before.count;
  delta.sum -= before.sum;
  return delta;
}

}  // namespace

std::unique_ptr<Host> build_host(const WorkloadConfig& config,
                                 const Inputs& inputs) {
  auto host = std::make_unique<Host>();
  runtime::RuntimeConfig runtime;
  runtime.queue_capacity = config.queue_capacity;
  runtime.planner_threads = config.planners;
  runtime.aggregation_shards = config.fold_shards;
  host->server = std::make_unique<runtime::ConcurrentFleetServer>(runtime);
  for (std::size_t s = 0; s < config.tenants; ++s) {
    host->models.push_back(make_model(config.model, model_seed(inputs.seed, s)));
    auto iprof = std::make_unique<profiler::IProf>(profiler::IProf::Config{});
    iprof->pretrain(inputs.profile_dataset);
    host->ids.push_back(host->server->register_model(
        *host->models.back(), std::move(iprof), server_config()));
  }
  net::LoopbackIngest::Config ingest;  // the default 4096-frame ring
  ingest.capacity_bytes = config.ring_mb << 20;
  ingest.injector_threads = 1;  // one injector: admission order = send order
  ingest.retry_backpressure = true;
  // The host never pauses, so a frame the queue refuses waits in the
  // injector until a planner frees space instead of being given up after a
  // retry budget: no frame is lost to queue backpressure.
  ingest.max_submit_attempts = 0;
  host->ingest = std::make_unique<net::LoopbackIngest>(*host->server, ingest);
  return host;
}

Sender::Sender(const WorkloadConfig& config, Inputs& inputs, Host& host)
    : inputs_(inputs), host_(host) {
  for (std::size_t s = 0; s < config.tenants; ++s) {
    sources_.emplace_back(inputs.seed, static_cast<std::uint32_t>(s),
                          inputs.n_classes, inputs.pool.size());
  }
  log_.per_session.resize(config.tenants);
  log_.sat_begin.assign(config.tenants, 0);
}

FrameSpec Sender::next_spec(std::size_t session) {
  return sources_[session].next(sent(session));
}

void Sender::stamp(const FrameSpec& spec) {
  stamp_frame(inputs_.pool[spec.pool], spec, host_.ids[spec.session],
              inputs_.n_classes);
}

bool Sender::try_send(const FrameSpec& spec, bool record_sat) {
  if (!host_.ingest->try_send(inputs_.pool[spec.pool])) return false;
  auto& frames = log_.per_session[spec.session];
  if (record_sat) {
    log_.sat_order.emplace_back(spec.session,
                                static_cast<std::uint32_t>(frames.size()));
  }
  frames.push_back(spec);
  return true;
}

void warm_up(Host& host, Sender& sender, const Inputs& inputs,
             std::size_t window, std::size_t per_session) {
  const std::size_t sessions = sender.sessions();
  std::size_t requests = 0;
  auto folded = [&] {
    std::size_t total = 0;
    for (const core::ModelId id : host.ids) total += host.server->version(id);
    return total;
  };
  std::size_t in_flight_base = 0;
  for (std::size_t s = 0; s < sessions; ++s) in_flight_base += sender.sent(s);
  std::size_t sent = in_flight_base;
  std::size_t seen_folded = folded();
  for (std::size_t round = 0;; ++round) {
    bool any = false;
    for (std::size_t s = 0; s < sessions; ++s) {
      if (sender.sent(s) >= per_session) continue;
      any = true;
      while (sent - seen_folded >= window) {
        pause_for_ns(kRefusalBackoffNs);
        seen_folded = folded();
      }
      const FrameSpec spec = sender.next_spec(s);
      sender.stamp(spec);
      while (!sender.try_send(spec, false)) pause_for_ns(kRefusalBackoffNs);
      ++sent;
      // One pull per frame fills the controller's request history too.
      const RequestInput& request =
          inputs.requests[requests++ % inputs.requests.size()];
      host.server->handle_request(host.ids[s], request.features,
                                  request.device_model, request.labels);
    }
    if (!any) break;
  }
  host.ingest->drain();
  host.server->drain();
}

SaturationResult run_saturation(const WorkloadConfig& config, Host& host,
                                Sender& sender, double budget_s,
                                std::size_t min_rounds, SpanRecorder* spans) {
  SaturationResult result;
  const std::size_t sessions = sender.sessions();
  for (std::size_t s = 0; s < sessions; ++s) {
    sender.log().sat_begin[s] = sender.sent(s);
  }
  const std::uint32_t stamp_id = spans ? spans->intern("gen.stamp") : 0;
  const std::uint32_t send_id = spans ? spans->intern("gen.try_send") : 0;
  std::size_t traced_frames = 0;
  const std::uint64_t start = now_ns();
  for (std::size_t round = 0;; ++round) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (round >= min_rounds && elapsed >= budget_s) break;
    const bool traced = spans != nullptr && round % 2 == 1;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < config.sat_round_frames; ++i) {
      const std::size_t s = i % sessions;
      const FrameSpec spec = sender.next_spec(s);
      const std::uint64_t gid = result.frames + i;
      if (traced) {
        SpanRecorder::Scope scope(*spans, stamp_id, gid);
        sender.stamp(spec);
      } else {
        sender.stamp(spec);
      }
      while (true) {
        bool ok = false;
        if (traced) {
          SpanRecorder::Scope scope(*spans, send_id, gid);
          ok = sender.try_send(spec, true);
        } else {
          ok = sender.try_send(spec, true);
        }
        if (ok) break;
        ++result.ring_refusals;
        pause_for_ns(kRefusalBackoffNs);
      }
    }
    host.ingest->drain();
    host.server->drain();
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    const double gps = static_cast<double>(config.sat_round_frames) / seconds;
    (traced ? result.traced_gps : result.untraced_gps).push_back(gps);
    if (traced) traced_frames += config.sat_round_frames;
    result.frames += config.sat_round_frames;
  }
  if (spans != nullptr && traced_frames > 0) {
    const auto total = spans->total_ns_by_name();
    result.gen_stamp_ns = total[stamp_id] / static_cast<double>(traced_frames);
    result.gen_send_ns = total[send_id] / static_cast<double>(traced_frames);
  }
  return result;
}

OpenLoopResult run_open_loop(const WorkloadConfig& config, Host& host,
                             Sender& sender, const Inputs& inputs,
                             double duration_s, SpanRecorder* spans) {
  OpenLoopResult r;
  const std::size_t sessions = sender.sessions();
  runtime::ConcurrentFleetServer& server = *host.server;

  std::size_t processed_before = 0;
  std::size_t publishes_before = 0;
  std::vector<telemetry::HistogramSnapshot> staleness_before;
  std::vector<telemetry::HistogramSnapshot> weight_before;
  for (const core::ModelId id : host.ids) {
    const runtime::RuntimeStats stats = server.stats(id);
    processed_before += stats.processed;
    publishes_before += server.session(id)->store().publishes();
    staleness_before.push_back(stats.staleness_hist);
    weight_before.push_back(stats.weight_hist);
  }

  const std::uint32_t send_id = spans ? spans->intern("gen.try_send") : 0;
  const std::uint32_t current_id = spans ? spans->intern("gen.current") : 0;
  const std::uint32_t request_id =
      spans ? spans->intern("gen.handle_request") : 0;
  std::size_t traced_sends = 0;

#if defined(__linux__)
  // Idle sleeps should last what they ask for, not the default 50 us slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  stats::Rng rng = stats::Rng::stream(inputs.seed, 30000);
  const auto duration_ns = static_cast<std::uint64_t>(duration_s * 1e9);
  const std::uint64_t t0 = now_ns() + 1000000;
  const std::uint64_t t_end = t0 + duration_ns;
  // Due time as seconds into the leg; protocol pushes due after the end
  // (their compute delay ran past it) count toward the last instant.
  auto offset_of = [&](std::uint64_t due) {
    const double at = due > t0 ? static_cast<double>(due - t0) * 1e-9 : 0.0;
    return std::min(at, std::nextafter(duration_s, 0.0));
  };
  auto gap = [&](double rate) {
    return static_cast<std::uint64_t>(rng.exponential(1e9 / rate));
  };
  const std::size_t request_pool = inputs.requests.size();
  auto pick_request = [&]() -> const RequestInput& {
    return inputs.requests[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(request_pool) - 1))];
  };

  struct Pending {
    std::uint64_t due;
    FrameSpec spec;
    bool operator>(const Pending& other) const { return due > other.due; }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> pending;
  struct Outstanding {
    std::uint64_t n;
    std::uint64_t due;
  };
  std::vector<std::deque<Outstanding>> outstanding(sessions);
  std::vector<std::uint64_t> last_poll(sessions, 0);

  std::uint64_t next_push = t0 + gap(config.push_rate);
  const bool pull_stream = !config.protocol && config.pull_rate > 0.0;
  // The independent pull stream runs in the last kPullPhase of the leg
  // only, so the pushes before it are timed on an unloaded generator.
  const auto pull_start =
      t0 + static_cast<std::uint64_t>((1.0 - kPullPhase) * duration_s * 1e9);
  std::uint64_t next_pull =
      pull_stream ? pull_start + gap(config.pull_rate) : kNever;
  std::size_t rr_push = 0;
  std::size_t rr_pull = 0;
  std::uint64_t last_any_poll = 0;

  auto poll = [&](std::size_t s) {
    std::size_t version = 0;
    {
      std::optional<SpanRecorder::Scope> scope;
      if (spans) scope.emplace(*spans, current_id, s);
      version = server.current(host.ids[s]).version;
    }
    const std::uint64_t t = now_ns();
    if (last_poll[s] != 0) {
      r.poll_us.push_back(static_cast<double>(t - last_poll[s]) * 1e-3);
    }
    last_poll[s] = t;
    auto& queue = outstanding[s];
    while (!queue.empty() && queue.front().n <= version) {
      r.visibility_ms.add(offset_of(queue.front().due),
                          static_cast<double>(t - queue.front().due) * 1e-6);
      queue.pop_front();
    }
    if (queue.empty()) last_poll[s] = 0;
  };
  auto push = [&](const FrameSpec& spec, std::uint64_t due) {
    sender.stamp(spec);
    bool ok = false;
    {
      std::optional<SpanRecorder::Scope> scope;
      if (spans) scope.emplace(*spans, send_id, spec.session);
      ok = sender.try_send(spec, false);
    }
    ++r.pushes_attempted;
    if (ok) {
      ++traced_sends;
      outstanding[spec.session].push_back(
          Outstanding{sender.sent(spec.session), due});
    } else {
      // Open loop: a refused frame is a failure, not a retry.
      ++r.push_refusals;
      r.visibility_ms.fail(offset_of(due));
    }
  };
  auto request = [&](std::size_t s, const RequestInput& input,
                     std::uint64_t due) {
    core::TaskAssignment assignment;
    {
      std::optional<SpanRecorder::Scope> scope;
      if (spans) scope.emplace(*spans, request_id, s);
      assignment = server.handle_request(host.ids[s], input.features,
                                         input.device_model, input.labels);
    }
    ++r.requests;
    r.request_us.add(offset_of(due), static_cast<double>(now_ns() - due) * 1e-3);
    if (!assignment.accepted) ++r.controller_rejects;
    return assignment;
  };

  while (true) {
    const std::uint64_t now = now_ns();
    const std::uint64_t due_push = next_push < t_end ? next_push : kNever;
    const std::uint64_t due_pull = next_pull < t_end ? next_pull : kNever;
    const std::uint64_t due_pending = pending.empty() ? kNever : pending.top().due;
    const std::uint64_t due = std::min({due_push, due_pull, due_pending});
    if (due == kNever) break;
    if (due <= now) {
      r.lag_us.push_back(static_cast<double>(now - due) * 1e-3);
      if (due == due_pending) {
        const Pending item = pending.top();
        pending.pop();
        push(item.spec, item.due);
      } else if (due == due_push) {
        next_push += gap(config.push_rate);
        const std::size_t s = rr_push++ % sessions;
        if (config.protocol) {
          const RequestInput& input = pick_request();
          // Drawn for every arrival, accepted or not, so the seeded stream
          // does not depend on controller decisions.
          const auto pool = static_cast<std::uint32_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(inputs.pool.size()) - 1));
          const auto delay = static_cast<std::uint64_t>(
              kComputeDelayMs * 1e6 * (0.5 + rng.exponential(0.5)));
          const core::TaskAssignment assignment = request(s, input, due);
          if (assignment.accepted) {
            FrameSpec spec;
            spec.session = static_cast<std::uint32_t>(s);
            spec.pool = pool;
            spec.label = input.label;
            spec.mini_batch = static_cast<std::uint32_t>(
                std::clamp<std::size_t>(assignment.mini_batch, 8, 4096));
            spec.task_version = assignment.model_version;
            pending.push(Pending{due + delay, spec});
          }
        } else {
          push(sender.next_spec(s), due);
        }
      } else {
        next_pull += gap(config.pull_rate);
        request(rr_pull++ % sessions, pick_request(), due);
      }
      continue;
    }
    if (now - last_any_poll < kPollGapNs) {
      // Idle until the next poll or due time. Far from the next due time,
      // sleep briefly and leave the core to the serving threads; close to
      // it, only yield, so the event starts on time.
      if (due - now > kSleepMarginNs) {
        std::this_thread::sleep_for(std::chrono::microseconds(kIdleSleepUs));
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    last_any_poll = now;
    for (std::size_t s = 0; s < sessions; ++s) {
      if (!outstanding[s].empty()) poll(s);
    }
  }
  host.ingest->drain();
  server.drain();
  for (std::size_t s = 0; s < sessions; ++s) {
    last_poll[s] = 0;  // the drain gap is not a poll interval
    if (!outstanding[s].empty()) poll(s);
    for (const Outstanding& never : outstanding[s]) {
      r.visibility_ms.fail(offset_of(never.due));
    }
  }
  r.duration_s = duration_s;

  std::size_t processed_after = 0;
  std::size_t publishes_after = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    const core::ModelId id = host.ids[s];
    const runtime::RuntimeStats stats = server.stats(id);
    processed_after += stats.processed;
    publishes_after += server.session(id)->store().publishes();
    const auto staleness = histogram_delta(stats.staleness_hist, staleness_before[s]);
    const auto weight = histogram_delta(stats.weight_hist, weight_before[s]);
    if (s == 0) {
      r.staleness = staleness;
      r.weight = weight;
    } else {
      r.staleness.merge(staleness);
      r.weight.merge(weight);
    }
    r.queue_max_depth = stats.queue_max_depth_seen;
  }
  r.processed = processed_after - processed_before;
  r.publishes = publishes_after - publishes_before;
  if (spans != nullptr && traced_sends > 0) {
    r.send_ns = spans->total_ns_by_name()[send_id] /
                static_cast<double>(traced_sends);
  }
  return r;
}

}  // namespace fleetbench
