#include "staged.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

#include "fleet/net/wire.hpp"
#include "fleet/profiler/iprof.hpp"

namespace fleetbench {

using namespace fleet;

StagedReplay::StagedReplay(const WorkloadConfig& config, const Inputs& inputs,
                           std::size_t sessions)
    : config_(config), inputs_(inputs) {
  for (std::size_t s = 0; s < sessions; ++s) {
    models_.push_back(make_model(config.model, model_seed(inputs.seed, s)));
    // The profiler never influences a fold; an untrained one suffices.
    sessions_.push_back(std::make_unique<runtime::ModelSession>(
        s, *models_.back(),
        std::make_unique<profiler::IProf>(profiler::IProf::Config{}),
        server_config(), /*trace_capacity=*/0, config.fold_shards));
  }
}

void StagedReplay::replay_sessions(const SentLog& log,
                                   const std::vector<std::size_t>& from,
                                   const std::vector<std::size_t>& to,
                                   std::size_t threads) {
  const std::size_t sessions = sessions_.size();
  threads = std::clamp<std::size_t>(threads, 1, sessions);
  const std::size_t batch = std::max<std::size_t>(config_.staged_batch, 1);
  std::vector<std::exception_ptr> errors(threads);
  auto work = [&](std::size_t t) {
    try {
      // Thread-private frame templates and fold pool: stamping writes the
      // template in place.
      std::vector<std::vector<std::uint8_t>> templates = inputs_.pool;
      runtime::ShardedAggregator pool(config_.fold_shards);
      const net::WireDecoder decoder;
      std::vector<runtime::GradientJob> jobs(batch);
      std::vector<runtime::FoldOp> plan;
      runtime::FoldLatch latch;
      for (std::size_t s = t; s < sessions; s += threads) {
        runtime::ModelSession& session = *sessions_[s];
        const auto& frames = log.per_session[s];
        for (std::size_t i = from[s]; i < to[s]; i += batch) {
          const std::size_t n = std::min(batch, to[s] - i);
          plan.clear();
          for (std::size_t k = 0; k < n; ++k) {
            const FrameSpec& spec = frames[i + k];
            auto& frame = templates[spec.pool];
            stamp_frame(frame, spec, s, inputs_.n_classes);
            if (decoder.decode(frame, jobs[k]) != net::WireError::kOk) {
              throw std::runtime_error("staged replay: frame failed to decode");
            }
            if (!session.plan_process(jobs[k], plan)) {
              throw std::runtime_error("staged replay: job dropped as invalid");
            }
          }
          pool.submit(session.fold_context(), plan, latch);
          pool.wait(latch);
          if (latch.take_failures() > 0) {
            throw std::runtime_error("staged replay: fold task failed");
          }
          session.publish_if_dirty();
        }
      }
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  std::vector<std::thread> workers;
  for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(work, t);
  work(0);
  for (std::thread& worker : workers) worker.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

StagedResult StagedReplay::replay_pipeline(
    const SentLog& log,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> order,
    SpanRecorder& spans) {
  StagedResult result;
  const std::size_t sessions = sessions_.size();
  const std::size_t batch = std::max<std::size_t>(config_.staged_batch, 1);
  std::vector<std::vector<std::uint8_t>> templates = inputs_.pool;
  runtime::GradientQueue queue(config_.queue_capacity,
                               runtime::RuntimeConfig{}.queue_shards, nullptr,
                               config_.planners);
  runtime::ShardedAggregator pool(config_.fold_shards);
  const net::WireDecoder decoder;
  runtime::GradientJob job;
  std::vector<runtime::GradientJob> drained;
  std::vector<std::vector<runtime::FoldOp>> plans(sessions);
  std::vector<runtime::FoldLatch> latches(sessions);
  std::vector<char> touched(sessions, 0);

  const std::uint32_t batch_id = spans.intern("staged.batch");
  const std::uint32_t decode_id = spans.intern("wire.decode");
  const std::uint32_t push_id = spans.intern("queue.push");
  const std::uint32_t drain_id = spans.intern("queue.drain");
  const std::uint32_t plan_id = spans.intern("session.plan");
  const std::uint32_t fold_id = spans.intern("fold");
  const std::uint32_t publish_id = spans.intern("session.publish");
  const std::size_t first_span = spans.spans().size();
  // Fresh queue: tickets are consecutive from 0 in push order.
  std::vector<std::uint32_t> session_of_ticket;
  session_of_ticket.reserve(order.size());

  const std::uint64_t t0 = now_ns();
  for (std::size_t b = 0; b < order.size(); b += batch) {
    const std::size_t n = std::min(batch, order.size() - b);
    SpanRecorder::Scope batch_scope(spans, batch_id, b);
    for (std::size_t k = 0; k < n; ++k) {
      const auto [s, index] = order[b + k];
      const FrameSpec& spec = log.per_session[s][index];
      auto& frame = templates[spec.pool];
      stamp_frame(frame, spec, s, inputs_.n_classes);
      session_of_ticket.push_back(s);
      {
        SpanRecorder::Scope scope(spans, decode_id, b + k);
        if (decoder.decode(frame, job) != net::WireError::kOk) {
          throw std::runtime_error("staged pipeline: frame failed to decode");
        }
      }
      {
        SpanRecorder::Scope scope(spans, push_id, b + k);
        if (!queue.try_push(job)) {
          throw std::runtime_error("staged pipeline: queue refused a job");
        }
      }
    }
    for (std::size_t g = 0; g < queue.group_count(); ++g) {
      SpanRecorder::Scope scope(spans, drain_id, g);
      queue.drain(drained, 0, g);
    }
    for (runtime::GradientJob& drained_job : drained) {
      const std::size_t s = drained_job.model_id;
      touched[s] = 1;
      SpanRecorder::Scope scope(spans, plan_id, drained_job.ticket);
      if (!sessions_[s]->plan_process(drained_job, plans[s])) {
        throw std::runtime_error("staged pipeline: job dropped as invalid");
      }
    }
    for (std::size_t s = 0; s < sessions; ++s) {
      if (plans[s].empty()) continue;
      SpanRecorder::Scope scope(spans, fold_id, s);
      pool.submit(sessions_[s]->fold_context(), plans[s], latches[s]);
      pool.wait(latches[s]);
      if (latches[s].take_failures() > 0) {
        throw std::runtime_error("staged pipeline: fold task failed");
      }
    }
    for (std::size_t s = 0; s < sessions; ++s) {
      if (!touched[s]) continue;
      SpanRecorder::Scope scope(spans, publish_id, s);
      if (sessions_[s]->publish_if_dirty()) ++result.publishes;
      plans[s].clear();
      touched[s] = 0;
    }
    drained.clear();
  }
  result.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  result.frames = order.size();

  // Attribute self time to layers, and the planner-side layers to the
  // planner group that owns the work.
  const std::vector<double> self = spans.self_ns_per_span();
  const std::size_t planners = queue.group_count();
  result.planner_ns.assign(planners, 0.0);
  const auto& all = spans.spans();
  for (std::size_t i = first_span; i < all.size(); ++i) {
    const Span& span = all[i];
    const double ns = self[i];
    std::size_t group = planners;  // not planner-side work
    if (span.name == batch_id) {
      result.loop_ns += ns;
    } else if (span.name == decode_id) {
      result.decode_ns += ns;
    } else if (span.name == push_id) {
      result.push_ns += ns;
    } else if (span.name == drain_id) {
      result.drain_ns += ns;
      group = span.gid;
    } else if (span.name == plan_id) {
      result.plan_ns += ns;
      group = session_of_ticket[span.gid] % planners;
    } else if (span.name == fold_id) {
      result.fold_ns += ns;
      group = span.gid % planners;
    } else if (span.name == publish_id) {
      result.publish_ns += ns;
      group = span.gid % planners;
    }
    if (group < planners) result.planner_ns[group] += ns;
  }
  return result;
}

}  // namespace fleetbench
