// FLeet serving benchmark: gradient throughput and time-to-visibility of a
// multi-tenant ConcurrentFleetServer fed serialized frames through
// LoopbackIngest, with a traced run that attributes the cost per layer.
//
//   fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [workload shape flags, see WorkloadConfig]
//
// Prints one line per metric ("metric <name> <value> <unit>"), notes, and
// as its last line one JSON object {correct, attempted, failed, metrics}.
// Exits 1 when the correctness gate fails.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/tensor/kernels/kernels.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "probes.hpp"
#include "serving.hpp"
#include "staged.hpp"

using namespace fleetbench;
using namespace fleet;

namespace {

struct Args {
  std::map<std::string, std::string> values;

  const std::string& get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  double number(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::stod(it->second);
  }
  std::size_t count(const std::string& key, std::size_t fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback
                              : static_cast<std::size_t>(std::stoull(it->second));
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value pairs, got " + key);
    }
    args.values[key.substr(2)] = argv[++i];
  }
  return args;
}

WorkloadConfig config_from(const Args& args) {
  WorkloadConfig c;
  c.name = args.get("workload");
  c.tenants = args.count("tenants", c.tenants);
  c.model = args.get("model", c.model);
  c.payload = args.get("payload", c.payload);
  c.planners = args.count("planners", c.planners);
  c.fold_shards = args.count("fold_shards", c.fold_shards);
  c.queue_capacity = args.count("queue_capacity", c.queue_capacity);
  c.ring_mb = args.count("ring_mb", c.ring_mb);
  c.sat_round_frames = args.count("sat_round_frames", c.sat_round_frames);
  c.push_rate = args.number("push_rate", c.push_rate);
  c.pull_rate = args.number("pull_rate", c.pull_rate);
  c.protocol = args.count("protocol", 0) != 0;
  c.pool_frames = args.count("pool_frames", c.pool_frames);
  c.staged_batch = args.count("staged_batch", c.staged_batch);
  c.staged_frames = args.count("staged_frames", c.staged_frames);
  c.warmup_window = args.count("warmup_window", c.warmup_window);
  c.windows = args.count("windows", c.windows);
  c.request_windows = args.count("request_windows", c.request_windows);
  return c;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

/// Median over open-loop windows of each window's percentile (failures
/// rank above every sample). A percentile that lands on failures has no
/// finite value; it is reported as `cap` (the leg's length), which is
/// longer than any latency the leg could have measured.
double windowed_percentile(const TimedSamples& timed, std::size_t windows,
                           double begin_s, double end_s, double p, double cap) {
  std::vector<double> per_window;
  for (const double v : window_percentiles(timed, windows, begin_s, end_s, p)) {
    if (!std::isnan(v)) per_window.push_back(std::min(v, cap));
  }
  return median(per_window);
}

std::string number_text(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
    std::cout << "metric " << name << " " << number_text(value) << " " << unit
              << "\n";
  }
  std::string json(bool correct, std::size_t attempted, std::size_t failed) const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out << ", ";
      out << "\"" << metrics_[i].name << "\": {\"value\": "
          << number_text(metrics_[i].value) << ", \"unit\": \""
          << metrics_[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
  }

 private:
  std::vector<Metric> metrics_;
};

/// Correctness gate findings; any entry fails the run.
struct Gate {
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

bool all_finite(std::span<const float> values) {
  return std::all_of(values.begin(), values.end(),
                     [](float v) { return std::isfinite(v); });
}

/// Host-side half of the correctness gate, once everything is drained:
/// the ingest ledger, the server's own counters and every session's
/// published version. Returns each session's served parameters for the
/// comparison against the staged replay.
std::vector<std::vector<float>> check_host(Host& host, const Sender& sender,
                                           const net::IngestStats& ingest,
                                           const runtime::RuntimeStats& host_stats,
                                           Gate& gate) {
  gate.check(ingest.frames_sent == ingest.frames_submitted + ingest.wire_rejects +
                                       ingest.server_rejects + ingest.shed_drops,
             "ingest accounting identity");
  std::size_t logged = 0;
  for (std::size_t s = 0; s < sender.sessions(); ++s) logged += sender.sent(s);
  gate.check(ingest.frames_sent == logged, "frames_sent == frames logged");
  gate.check(host_stats.retired_drops == 0, "retired_drops == 0");
  std::vector<std::vector<float>> served(sender.sessions());
  for (std::size_t s = 0; s < sender.sessions(); ++s) {
    const std::string session = "session " + std::to_string(s) + ": ";
    const core::ModelId id = host.ids[s];
    const runtime::RuntimeStats stats = host.server->stats(id);
    gate.check(stats.invalid_jobs == 0, session + "invalid_jobs == 0");
    const std::size_t published = host.server->current(id).version;
    gate.check(published == stats.processed,
               session + "published version " + std::to_string(published) +
                   " != folded " + std::to_string(stats.processed));
    gate.check(stats.processed == sender.sent(s), session + "folded != frames sent");
    const auto params = host.models[s]->parameters_view();
    gate.check(all_finite(params), session + "non-finite parameters");
    served[s].assign(params.begin(), params.end());
  }
  return served;
}

/// Replay every sent frame through the staged pipeline and compare the
/// result bitwise with the served models. Traced runs send a prefix of the
/// saturation leg through the single-thread pipeline with spans (the
/// per-layer attribution); everything else replays per session in
/// parallel.
StagedResult check_replay(const WorkloadConfig& config, const Inputs& inputs,
                          const SentLog& log,
                          const std::vector<std::vector<float>>& served,
                          bool trace, SpanRecorder& spans, Gate& gate) {
  constexpr std::size_t kReplayThreads = 4;
  const std::size_t sessions = served.size();
  StagedReplay staged(config, inputs, sessions);
  const std::vector<std::size_t> zero(sessions, 0);
  std::vector<std::size_t> ends(sessions);
  for (std::size_t s = 0; s < sessions; ++s) ends[s] = log.per_session[s].size();
  StagedResult pipeline;
  if (trace) {
    staged.replay_sessions(log, zero, log.sat_begin, kReplayThreads);
    const std::size_t traced = std::min(log.sat_order.size(), config.staged_frames);
    pipeline = staged.replay_pipeline(log, std::span(log.sat_order).first(traced),
                                      spans);
    std::vector<std::size_t> after = log.sat_begin;
    for (std::size_t i = 0; i < traced; ++i) {
      after[log.sat_order[i].first] = log.sat_order[i].second + 1;
    }
    staged.replay_sessions(log, after, ends, kReplayThreads);
  } else {
    staged.replay_sessions(log, zero, ends, kReplayThreads);
  }
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::string session = "session " + std::to_string(s) + ": ";
    const auto reference = staged.parameters(s);
    gate.check(reference.size() == served[s].size() &&
                   std::memcmp(reference.data(), served[s].data(),
                               served[s].size() * sizeof(float)) == 0,
               session + "served parameters differ from the staged replay");
    gate.check(staged.version(s) == ends[s], session + "staged version");
  }
  return pipeline;
}

/// The open-loop leg's time ranges: pushes timed on an unloaded generator
/// (visibility) and the pull phase (requests). Protocol workloads pull on
/// every arrival, so both cover the whole leg.
struct OpenLoopRanges {
  double writes_until;
  double reads_from;
};

OpenLoopRanges open_loop_ranges(const WorkloadConfig& config,
                                const OpenLoopResult& open) {
  if (config.protocol) return {open.duration_s, 0.0};
  const double split = open.duration_s * (1.0 - kPullPhase);
  return {split, split};
}

/// p99 over each range's pooled samples: windows of the size the p95
/// metrics use hold too few samples beyond a p99.
struct Tails {
  double visibility_p99_ms;
  double request_p99_us;
};

Tails open_loop_tails(const WorkloadConfig& config, const OpenLoopResult& open) {
  const OpenLoopRanges ranges = open_loop_ranges(config, open);
  const double cap_ms = open.duration_s * 1e3;
  return {windowed_percentile(open.visibility_ms, 1, 0.0, ranges.writes_until,
                              99.0, cap_ms),
          windowed_percentile(open.request_us, 1, ranges.reads_from,
                              open.duration_s, 99.0, cap_ms * 1e3)};
}

void report_end_to_end(Report& report, const WorkloadConfig& config,
                       const OpenLoopResult& open, double saturated_gps,
                       double setup_s) {
  const double open_s = open.duration_s;
  const double cap_ms = open_s * 1e3;
  const auto [writes_until, reads_from] = open_loop_ranges(config, open);
  auto visibility = [&](double p) {
    return windowed_percentile(open.visibility_ms, config.windows, 0.0,
                               writes_until, p, cap_ms);
  };
  auto request = [&](double p) {
    return windowed_percentile(open.request_us, config.request_windows,
                               reads_from, open_s, p, cap_ms * 1e3);
  };
  report.add("saturated_gps", saturated_gps, "gradients/s");
  report.add("visibility_p50_ms", visibility(50.0), "ms");
  report.add("visibility_p95_ms", visibility(95.0), "ms");
  report.add("request_p50_us", request(50.0), "us");
  report.add("request_p95_us", request(95.0), "us");
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::cout << "note per-window visibility p95 (ms):";
  for (const double v : window_percentiles(open.visibility_ms, config.windows,
                                           0.0, writes_until, 95.0)) {
    std::cout << " " << number_text(v);
  }
  std::cout << "\nnote per-window request p95 (us):";
  for (const double v : window_percentiles(open.request_us, config.request_windows,
                                           reads_from, open_s, 95.0)) {
    std::cout << " " << number_text(v);
  }
  const auto tails = open_loop_tails(config, open);
  std::cout << "\nnote pooled p99: visibility " << number_text(tails.visibility_p99_ms)
            << " ms, request " << number_text(tails.request_p99_us) << " us";
  std::cout << "\nnote visibility: pushes due in [0, " << number_text(writes_until)
            << ") s of the open-loop leg, " << config.windows
            << " windows; requests: due in [" << number_text(reads_from) << ", "
            << number_text(open_s) << ") s, " << config.request_windows
            << " windows (median of per-window percentiles)\n";
}

/// Everything the per-layer report draws on.
struct LayerInputs {
  const WorkloadConfig& config;
  const Inputs& inputs;
  const SentLog& log;
  const OpenLoopResult& open;
  const SaturationResult& sat;
  const StagedResult& pipeline;
  const net::IngestStats& ingest;
  const runtime::RuntimeStats& host_stats;
  double snapshot_read_ns;
  double handle_ns;
  double failed_frac;
};

void report_per_layer(Report& report, const LayerInputs& in) {
  const StagedResult& pipeline = in.pipeline;
  const auto frames = static_cast<double>(std::max<std::size_t>(pipeline.frames, 1));
  const auto params = static_cast<double>(in.inputs.parameter_count);
  const auto frame_bytes = static_cast<double>(in.inputs.pool[0].size());
  const auto sent = static_cast<double>(std::max<std::size_t>(in.ingest.frames_sent, 1));
  const double publishes_per_gradient =
      in.open.processed > 0 ? static_cast<double>(in.open.publishes) /
                                  static_cast<double>(in.open.processed)
                            : 0.0;
  const double saturated_gps = median(in.sat.untraced_gps);

  // Reconcile: the slowest thread's staged path per gradient against the
  // measured 1/saturated_gps.
  struct Path {
    std::string thread;
    double ns;
  };
  std::vector<Path> paths;
  paths.push_back({"generator", in.sat.gen_stamp_ns + in.sat.gen_send_ns});
  paths.push_back({"injector", (pipeline.decode_ns + pipeline.push_ns) / frames});
  for (std::size_t p = 0; p < pipeline.planner_ns.size(); ++p) {
    paths.push_back({"planner" + std::to_string(p), pipeline.planner_ns[p] / frames});
  }
  const Path slowest = *std::max_element(
      paths.begin(), paths.end(),
      [](const Path& a, const Path& b) { return a.ns < b.ns; });
  const double measured_ns = 1e9 / saturated_gps;
  const double reconcile_gap = (measured_ns - slowest.ns) / measured_ns;
  const LearningProbe learning = probe_learning(in.inputs, in.log);

  report.add("wire.decode_ns", pipeline.decode_ns / frames, "ns");
  report.add("wire.frame_bytes", frame_bytes, "bytes");
  report.add("ingest.send_ns", in.open.send_ns, "ns");
  report.add("ingest.ring_rejects_per_frame",
             static_cast<double>(in.ingest.ring_rejects) / sent, "ratio");
  report.add("ingest.retries_per_frame",
             static_cast<double>(in.ingest.backpressure_retries) / sent, "ratio");
  report.add("queue.push_ns", pipeline.push_ns / frames, "ns");
  report.add("queue.drain_ns", pipeline.drain_ns / frames, "ns");
  report.add("queue.max_depth", static_cast<double>(in.open.queue_max_depth), "count");
  report.add("session.plan_ns", pipeline.plan_ns / frames, "ns");
  report.add("session.publish_ns",
             pipeline.publish_ns /
                 static_cast<double>(std::max<std::size_t>(pipeline.publishes, 1)),
             "ns");
  report.add("session.publishes_per_gradient", publishes_per_gradient, "ratio");
  report.add("learning.plan_submit_ns", learning.plan_submit_ns, "ns");
  report.add("learning.tau_thres_ns", learning.tau_thres_ns, "ns");
  report.add("learning.similarity_ns", learning.similarity_ns, "ns");
  report.add("learning.staleness_p50", in.open.staleness.quantile(0.5), "rounds");
  report.add("learning.staleness_p99", in.open.staleness.quantile(0.99), "rounds");
  report.add("learning.weight_mean", in.open.weight.mean(), "ratio");
  report.add("fold.ns", pipeline.fold_ns / frames, "ns");
  report.add("fold.peak_pending",
             static_cast<double>(in.host_stats.fold_peak_pending), "count");
  report.add("kernels.axpy_gbps", probe_axpy_gbps(in.inputs.parameter_count), "GB/s");
  // Decode reads the frame and writes 4|theta|; the fold axpy, the flush
  // (copy and zero) and the apply axpy touch 12|theta| each; every
  // published version copies 8|theta|.
  report.add("kernels.bytes_per_gradient",
             frame_bytes + 40 * params + 8 * params * publishes_per_gradient,
             "bytes");
  report.add("store.snapshot_read_ns", in.snapshot_read_ns, "ns");
  report.add("profiler.predict_ns", probe_predict_ns(in.inputs), "ns");
  report.add("request.handle_ns", in.handle_ns, "ns");
  report.add("gen.lag_p99_us", percentile_with_failures(in.open.lag_us, 0, 99.0), "us");
  report.add("gen.poll_p99_us", percentile_with_failures(in.open.poll_us, 0, 99.0),
             "us");
  report.add("staged.gps", frames / pipeline.seconds, "gradients/s");
  report.add("staged.loop_ns", pipeline.loop_ns / frames, "ns");
  report.add("trace.overhead_frac", 1.0 - median(in.sat.traced_gps) / saturated_gps,
             "ratio");
  report.add("trace.reconcile_gap", reconcile_gap, "ratio");
  report.add("trace.slowest_path_ns", slowest.ns, "ns");
  report.add("failed_frac", in.failed_frac, "ratio");
  const Tails tails = open_loop_tails(in.config, in.open);
  report.add("visibility_p99_ms", tails.visibility_p99_ms, "ms");
  report.add("request_p99_us", tails.request_p99_us, "us");
  std::cout << "note per-gradient staged paths (ns):";
  for (const Path& path : paths) {
    std::cout << " " << path.thread << "=" << number_text(path.ns);
  }
  std::cout << "\nnote bottleneck thread: " << slowest.thread
            << "; measured 1/saturated_gps = " << number_text(measured_ns)
            << " ns; reconcile gap " << number_text(reconcile_gap)
            << " (tolerance +-0.5)\n";
}

int run(const Args& args) {
  const WorkloadConfig config = config_from(args);
  const std::uint64_t seed = std::stoull(args.get("seed"));
  const double seconds = args.number("seconds", 10.0);
  const bool trace = args.count("trace", 0) != 0;
  const std::string out_dir = args.get("out_dir", ".");

  // Wall time per phase of this run, printed as a note.
  std::ostringstream phases;
  std::uint64_t phase_t0 = now_ns();
  auto phase = [&](const char* name) {
    const std::uint64_t t = now_ns();
    phases << " " << name << "="
           << number_text(static_cast<double>(t - phase_t0) * 1e-9);
    phase_t0 = t;
  };

  // Inputs first; their generation is not set-up.
  Inputs inputs = make_inputs(config, seed);
  phase("inputs");

  // Set-up, timed back to back at least kSetupRepeats times and until
  // kSetupBudgetS has passed (set-ups of small models take well under a
  // millisecond); the last host serves the run.
  constexpr std::size_t kSetupRepeats = 21;
  constexpr double kSetupBudgetS = 1.0;
  std::vector<double> setup_times;
  std::unique_ptr<Host> host;
  const std::uint64_t setup_start = now_ns();
  while (setup_times.size() < kSetupRepeats ||
         static_cast<double>(now_ns() - setup_start) * 1e-9 < kSetupBudgetS) {
    host.reset();
    const std::uint64_t t0 = now_ns();
    host = build_host(config, inputs);
    setup_times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  phase("setup");

  Sender sender(config, inputs, *host);
  warm_up(*host, sender, inputs, config.warmup_window,
          server_config().aggregator.staleness_window);
  phase("warmup");

  SpanRecorder open_spans(trace);
  SpanRecorder sat_spans(trace);
  const OpenLoopResult open =
      run_open_loop(config, *host, sender, inputs,
                    seconds * (1.0 - kSaturationShare), trace ? &open_spans : nullptr);
  const SaturationResult sat =
      run_saturation(config, *host, sender, seconds * kSaturationShare,
                     trace ? 4 : 3, trace ? &sat_spans : nullptr);
  phase("legs");

  Gate gate;
  const net::IngestStats ingest = host->ingest->stats();
  const runtime::RuntimeStats host_stats = host->server->host_stats();
  const auto served = check_host(*host, sender, ingest, host_stats, gate);
  double snapshot_read_ns = 0.0;
  double handle_ns = 0.0;
  if (trace) {  // probes that need the quiet host
    snapshot_read_ns = probe_snapshot_read_ns(*host->server, host->ids[0]);
    handle_ns = probe_handle_request_ns(*host->server, host->ids, inputs);
  }
  host.reset();  // frees the serving threads for the replay
  phase("gate");

  SpanRecorder staged_spans(true);
  const StagedResult pipeline = check_replay(config, inputs, sender.log(), served,
                                             trace, staged_spans, gate);
  phase("replay");

  // The open-loop leg is only valid if the generator kept its schedule.
  const double lag_p99_us =
      open.lag_us.empty() ? 0.0 : percentile_with_failures(open.lag_us, 0, 99.0);
  gate.check(lag_p99_us <= kLagBoundMs * 1e3,
             "generator p99 lag " + number_text(lag_p99_us) + " us exceeds " +
                 number_text(kLagBoundMs) + " ms: open-loop leg invalid");

  const std::size_t frame_failures = open.push_refusals + ingest.wire_rejects +
                                     ingest.server_rejects + ingest.shed_drops;
  const std::size_t frames_attempted = open.pushes_attempted + sat.frames;
  std::cout << "workload " << config.name << " seed " << seed << " seconds "
            << seconds << " trace " << (trace ? 1 : 0) << " kernel "
            << tensor::kernels::name(tensor::kernels::active_backend()) << "\n";
  std::cout << "note open-loop: " << open.pushes_attempted << " pushes, "
            << open.requests << " requests (" << open.controller_rejects
            << " controller rejects), " << open.push_refusals
            << " ring refusals, generator lag p99 " << number_text(lag_p99_us)
            << " us (bound " << number_text(kLagBoundMs)
            << " ms), version poll gap p99 "
            << number_text(open.poll_us.empty()
                               ? 0.0
                               : percentile_with_failures(open.poll_us, 0, 99.0))
            << " us\n";
  std::cout << "note saturation: " << sat.frames << " frames in "
            << sat.untraced_gps.size() + sat.traced_gps.size()
            << " rounds, ring refusals retried " << sat.ring_refusals
            << ", untraced round rates";
  for (const double gps : sat.untraced_gps) std::cout << " " << number_text(gps);
  std::cout << "\nnote failed_frac = " << frame_failures << " / "
            << frames_attempted << " frames attempted in the measured legs\n";

  Report report;
  if (trace) {
    report_per_layer(
        report, LayerInputs{config, inputs, sender.log(), open, sat, pipeline, ingest,
                            host_stats, snapshot_read_ns, handle_ns,
                            static_cast<double>(frame_failures) /
                                static_cast<double>(std::max<std::size_t>(frames_attempted, 1))});
    const std::string spans_path =
        out_dir + "/spans-" + config.name + "-" + std::to_string(seed) + ".csv";
    if (staged_spans.write_csv(spans_path)) {
      std::cout << "note spans written to " << spans_path << "\n";
    }
  } else {
    report_end_to_end(report, config, open, median(sat.untraced_gps),
                      median(setup_times));
  }

  phase("report");
  std::cout << "note phase seconds:" << phases.str() << "\n";
  for (const std::string& failure : gate.failures) {
    std::cout << "GATE FAILED: " << failure << "\n";
  }
  const bool correct = gate.failures.empty();
  std::cout << report.json(correct, frames_attempted + open.requests, frame_failures)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "fleetbench: " << error.what() << "\n";
    return 2;
  }
}
