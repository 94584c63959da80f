// Wire ingest bench (DESIGN.md §12): what the binary gradient wire format
// costs and saves on the serving path.
//
//   1. Wire density — bytes per gradient for the int8 frame vs the
//      raw-float32 fallback frame vs an unframed float payload (the
//      "no wire format" baseline). The paper's motivation for quantized
//      uploads is the 4G/3G uplink; int8 framing must stay ~4x denser.
//   2. Decode overhead — ns per gradient for WireDecoder::decode into a
//      reused GradientJob (the injector hot path), per payload kind.
//   3. End-to-end throughput — gradients/s into a ConcurrentFleetServer
//      through the LoopbackIngest ring vs direct in-process try_submit of
//      pre-built jobs, same gradient stream, drained to fold completion.
//
// Emits BENCH_wire.json via bench::JsonReport.
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "fleet/net/compression.hpp"
#include "fleet/net/ingest.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/profiler/iprof.hpp"
#include "fleet/profiler/training_data.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/runtime/concurrent_server.hpp"
#include "fleet/stats/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace fleet;

std::unique_ptr<profiler::Profiler> pretrained_iprof() {
  auto iprof = std::make_unique<profiler::IProf>(profiler::IProf::Config{});
  iprof->pretrain(profiler::collect_profile_dataset(
      device::training_fleet(), profiler::IProf::Config{}.slo, 20));
  return iprof;
}

runtime::GradientJob make_job(const nn::TrainableModel& model,
                              std::size_t salt, stats::Rng& rng) {
  runtime::GradientJob job;
  job.model_id = core::kDefaultModelId;
  job.task_version = 0;
  job.gradient.resize(model.parameter_count());
  for (float& g : job.gradient) {
    g = static_cast<float>(rng.gaussian(0.0, 0.01));
  }
  job.label_dist = stats::LabelDistribution(model.n_classes());
  job.label_dist.add(static_cast<int>(salt % model.n_classes()), 2);
  job.mini_batch = 4;
  return job;
}

double elapsed_s(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main() {
  auto model = nn::zoo::mlp(8, 4, 3);
  model->init(1);
  const std::size_t param_count = model->parameter_count();

  const std::size_t n_gradients = bench::scaled(20000, 2000);
  stats::Rng rng(7);

  // Pre-build the gradient stream once; every path measures the same jobs.
  std::vector<runtime::GradientJob> jobs;
  jobs.reserve(n_gradients);
  for (std::size_t i = 0; i < n_gradients; ++i) {
    jobs.push_back(make_job(*model, i, rng));
  }

  bench::header("Wire ingest (" + std::to_string(param_count) +
                " parameters, " + std::to_string(n_gradients) +
                " gradients)");

  // --- 1. Wire density -----------------------------------------------------
  std::vector<std::uint8_t> frame;
  net::encode_job(jobs[0], net::PayloadKind::kInt8, frame);
  const double int8_bytes = static_cast<double>(frame.size());
  net::encode_job(jobs[0], net::PayloadKind::kFloat32, frame);
  const double raw_bytes = static_cast<double>(frame.size());
  const double unframed_bytes =
      static_cast<double>(param_count * sizeof(float));
  bench::row({"int8 frame", bench::fmt(int8_bytes, 0) + " B/gradient"});
  bench::row({"float32 frame", bench::fmt(raw_bytes, 0) + " B/gradient"});
  bench::row({"unframed floats", bench::fmt(unframed_bytes, 0) + " B"});

  // --- 2. Decode overhead --------------------------------------------------
  // Pre-encode all frames so the loop times decode alone, into one reused
  // job — exactly the injector's steady state.
  std::vector<std::vector<std::uint8_t>> int8_frames(n_gradients);
  std::vector<std::vector<std::uint8_t>> raw_frames(n_gradients);
  for (std::size_t i = 0; i < n_gradients; ++i) {
    net::encode_job(jobs[i], net::PayloadKind::kInt8, int8_frames[i]);
    net::encode_job(jobs[i], net::PayloadKind::kFloat32, raw_frames[i]);
  }
  net::WireDecoder decoder;
  runtime::GradientJob scratch;
  float sink = 0.0f;

  auto start = Clock::now();
  for (const auto& f : int8_frames) {
    if (const net::WireError error = decoder.decode(f, scratch);
        error != net::WireError::kOk) {
      std::cerr << "wire_ingest_bench: int8 frame failed to decode: "
                << net::wire_error_name(error) << "\n";
      return 1;
    }
    // The int8 kind stays quantized (DESIGN.md §12): decode validates and
    // copies the payload; the fold dequantizes it.
    sink += static_cast<float>(scratch.quantized[0]) * scratch.scale;
  }
  auto stop = Clock::now();
  const double int8_decode_ns =
      elapsed_s(start, stop) * 1e9 / static_cast<double>(n_gradients);

  start = Clock::now();
  for (const auto& f : raw_frames) {
    if (const net::WireError error = decoder.decode(f, scratch);
        error != net::WireError::kOk) {
      std::cerr << "wire_ingest_bench: float32 frame failed to decode: "
                << net::wire_error_name(error) << "\n";
      return 1;
    }
    sink += scratch.gradient[0];
  }
  stop = Clock::now();
  const double raw_decode_ns =
      elapsed_s(start, stop) * 1e9 / static_cast<double>(n_gradients);
  bench::row({"int8 decode", bench::fmt(int8_decode_ns, 1) + " ns/gradient"});
  bench::row({"float32 decode",
              bench::fmt(raw_decode_ns, 1) + " ns/gradient"});

  // --- 3. End-to-end throughput -------------------------------------------
  core::ServerConfig server_cfg;
  server_cfg.learning_rate = 0.01f;

  // Baseline: in-process try_submit of pre-built jobs (copies, so the
  // stream is reusable), drained to fold completion.
  double inproc_s = 0.0;
  {
    auto m = nn::zoo::mlp(8, 4, 3);
    m->init(1);
    runtime::ConcurrentFleetServer server(*m, pretrained_iprof(), server_cfg,
                                          runtime::RuntimeConfig{});
    start = Clock::now();
    for (const auto& job : jobs) {
      runtime::GradientJob copy = job;
      while (!server.try_submit(copy).accepted) {
        copy = job;  // backpressure: rebuild (move may have consumed it)
      }
    }
    server.drain();
    inproc_s = elapsed_s(start, Clock::now());
    server.stop();
  }

  // Wire path: the same stream as pre-encoded int8 frames through the
  // loopback ring, one injector (the ordered configuration), drained.
  // Backpressured submits retry until they land, like the in-process loop
  // above: with a bounded retry budget a burst that outlasts it gives
  // frames up as server rejects, and the throughput would not be over the
  // whole stream.
  double wire_s = 0.0;
  {
    auto m = nn::zoo::mlp(8, 4, 3);
    m->init(1);
    runtime::ConcurrentFleetServer server(*m, pretrained_iprof(), server_cfg,
                                          runtime::RuntimeConfig{});
    net::LoopbackIngest::Config ingest_cfg;
    ingest_cfg.retry_backpressure = true;
    ingest_cfg.max_submit_attempts = 0;  // unbounded; the host keeps draining
    net::LoopbackIngest ingest(server, ingest_cfg);
    start = Clock::now();
    for (const auto& f : int8_frames) {
      while (!ingest.try_send(f)) {}  // ring backpressure: spin
    }
    ingest.drain();
    server.drain();
    wire_s = elapsed_s(start, Clock::now());
    const auto stats = ingest.stats();
    if (stats.frames_submitted != n_gradients) {
      std::cerr << "wire_ingest_bench: ingest ledger does not account every "
                   "frame as submitted: expected "
                << n_gradients << " submitted; frames_sent="
                << stats.frames_sent
                << " frames_submitted=" << stats.frames_submitted
                << " wire_rejects=" << stats.wire_rejects
                << " server_rejects=" << stats.server_rejects
                << " shed_drops=" << stats.shed_drops
                << " ring_rejects=" << stats.ring_rejects
                << " backpressure_retries=" << stats.backpressure_retries
                << "\n";
      return 1;
    }
    ingest.close();
    server.stop();
  }

  const double inproc_grads_s = static_cast<double>(n_gradients) / inproc_s;
  const double wire_grads_s = static_cast<double>(n_gradients) / wire_s;
  bench::row({"in-process", bench::fmt(inproc_grads_s, 0) + " gradients/s"});
  bench::row({"loopback wire", bench::fmt(wire_grads_s, 0) + " gradients/s"});
  bench::row({"wire overhead",
              bench::fmt(inproc_grads_s / wire_grads_s, 2) + "x"});

  bench::JsonReport report("wire_ingest");
  report.metric("parameter_count", param_count);
  report.metric("gradients", n_gradients);
  report.metric("int8_bytes_per_gradient", int8_bytes);
  report.metric("float32_bytes_per_gradient", raw_bytes);
  report.metric("unframed_bytes_per_gradient", unframed_bytes);
  report.metric("int8_decode_ns_per_gradient", int8_decode_ns);
  report.metric("float32_decode_ns_per_gradient", raw_decode_ns);
  report.metric("inprocess_gradients_per_s", inproc_grads_s);
  report.metric("wire_gradients_per_s", wire_grads_s);
  report.write("BENCH_wire.json");
  std::cout << "\nwrote BENCH_wire.json\n";

  if (sink == 12345.678f) std::cerr << "";
  return 0;
}
