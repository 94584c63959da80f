#include "probes.hpp"

#include <stdexcept>

#include "fleet/learning/aggregator.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/profiler/iprof.hpp"
#include "fleet/tensor/kernels/kernels.hpp"
#include "measure.hpp"

namespace fleetbench {

using namespace fleet;

namespace {

constexpr int kTrials = 5;

/// Median over trials of (time of `calls` invocations of body) / calls.
template <typename Body>
double per_call_ns(std::size_t calls, Body&& body) {
  std::vector<double> trials;
  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    trials.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(calls));
  }
  return median(trials);
}

volatile std::size_t g_sink = 0;

}  // namespace

LearningProbe probe_learning(const Inputs& inputs, const SentLog& log) {
  // Decode each pool payload once; updates then reference them.
  std::vector<std::vector<float>> gradients;
  const net::WireDecoder decoder;
  runtime::GradientJob job;
  for (const auto& frame : inputs.pool) {
    if (decoder.decode(frame, job) != net::WireError::kOk) {
      throw std::runtime_error("learning probe: pool frame failed to decode");
    }
    gradients.push_back(job.gradient);
  }
  const auto& frames = log.per_session.at(0);
  if (frames.empty()) throw std::runtime_error("learning probe: no frames");
  const core::ServerConfig config = server_config();
  learning::AsyncAggregator aggregator(inputs.parameter_count,
                                       inputs.n_classes, config.aggregator);
  // The j-th update replays session 0's frame j (cycling), at the
  // staleness it was folded with: its index minus its task version.
  auto update_at = [&](std::size_t j) {
    const std::size_t index = j % frames.size();
    const FrameSpec& spec = frames[index];
    learning::WorkerUpdate update;
    update.gradient = gradients[spec.pool];
    update.staleness = static_cast<double>(
        index - std::min<std::size_t>(spec.task_version, index));
    update.label_dist = frame_labels(spec, inputs.n_classes);
    update.mini_batch = spec.mini_batch;
    return update;
  };
  // Fill the staleness window before timing.
  const std::size_t warm = config.aggregator.staleness_window;
  for (std::size_t j = 0; j < warm; ++j) aggregator.plan_submit(update_at(j));
  // Updates are built outside the timed loop.
  constexpr std::size_t kCalls = 400;
  std::vector<learning::WorkerUpdate> updates;
  for (std::size_t i = 0; i < kCalls * kTrials; ++i) {
    updates.push_back(update_at(warm + i));
  }
  std::size_t cursor = 0;
  LearningProbe probe;
  probe.plan_submit_ns = per_call_ns(kCalls, [&](std::size_t) {
    g_sink = g_sink + aggregator.plan_submit(updates[cursor++]).flush;
  });
  probe.tau_thres_ns = per_call_ns(kCalls, [&](std::size_t) {
    g_sink = g_sink + static_cast<std::size_t>(aggregator.tau_thres());
  });
  probe.similarity_ns = per_call_ns(kCalls, [&](std::size_t i) {
    const auto& labels = inputs.requests[i % inputs.requests.size()].labels;
    g_sink = g_sink + static_cast<std::size_t>(aggregator.similarity_of(labels) * 8);
  });
  return probe;
}

double probe_axpy_gbps(std::size_t n) {
  const tensor::kernels::KernelTable& kernels = tensor::kernels::active();
  std::vector<float> x(n, 0.5f);
  std::vector<float> y(n, 0.0f);
  // Enough calls per trial to take a few milliseconds at any size.
  const std::size_t calls = std::max<std::size_t>(64, (1u << 24) / (n + 64));
  const double ns = per_call_ns(calls, [&](std::size_t) {
    kernels.axpy(1e-6f, x.data(), y.data(), n);
  });
  g_sink = g_sink + static_cast<std::size_t>(y[n / 2]);
  return 12.0 * static_cast<double>(n) / ns;
}

double probe_snapshot_read_ns(const runtime::ConcurrentFleetServer& server,
                              core::ModelId id) {
  return per_call_ns(20000, [&](std::size_t) {
    g_sink = g_sink + server.current(id).version;
  });
}

double probe_predict_ns(const Inputs& inputs) {
  profiler::IProf iprof(profiler::IProf::Config{});
  iprof.pretrain(inputs.profile_dataset);
  return per_call_ns(4000, [&](std::size_t i) {
    const RequestInput& request = inputs.requests[i % inputs.requests.size()];
    g_sink = g_sink + iprof.predict_batch(request.features, request.device_model);
  });
}

double probe_handle_request_ns(runtime::ConcurrentFleetServer& server,
                               const std::vector<core::ModelId>& ids,
                               const Inputs& inputs) {
  return per_call_ns(1000, [&](std::size_t i) {
    const RequestInput& request = inputs.requests[i % inputs.requests.size()];
    g_sink = g_sink + server
                          .handle_request(ids[i % ids.size()], request.features,
                                          request.device_model, request.labels)
                          .model_version;
  });
}

}  // namespace fleetbench
