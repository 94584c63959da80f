// Self-test of the benchmark's own helpers: percentile-with-failures,
// median, span self-time attribution and frame stamping. Exits 1 on the
// first failed check.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "fleet/net/wire.hpp"
#include "inputs.hpp"
#include "measure.hpp"

using namespace fleetbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

void test_percentiles() {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  expect(percentile_with_failures(samples, 0, 50.0) == 50.0, "p50 of 1..100");
  expect(percentile_with_failures(samples, 0, 99.0) == 99.0, "p99 of 1..100");
  expect(percentile_with_failures(samples, 0, 100.0) == 100.0, "p100");
  // 100 samples + 100 failures: the median is the largest sample, and any
  // percentile past it lands on a failure.
  expect(percentile_with_failures(samples, 100, 50.0) == 100.0,
         "p50 with half failed");
  expect(std::isinf(percentile_with_failures(samples, 100, 51.0)),
         "p51 with half failed is a miss");
  // One failure among 1000: p99 still a sample, p99.95 a miss.
  std::vector<double> many(999, 1.0);
  expect(percentile_with_failures(many, 1, 99.0) == 1.0, "p99 with 0.1% failed");
  expect(std::isinf(percentile_with_failures(many, 1, 99.95)),
         "p99.95 with 0.1% failed is a miss");
  expect(std::isinf(percentile_with_failures({}, 3, 50.0)), "all failed");
  expect(std::isnan(percentile_with_failures({}, 0, 50.0)), "empty");
  // Windows by due time: [0, 0.5) in two windows. The second window holds
  // 5, 7 and one failure; a sample due at 0.9 is outside the range.
  TimedSamples timed;
  timed.add(0.1, 1.0);
  timed.add(0.2, 3.0);
  timed.add(0.3, 5.0);
  timed.add(0.4, 7.0);
  timed.fail(0.45);
  timed.add(0.9, 9.0);
  const auto p50 = window_percentiles(timed, 2, 0.0, 0.5, 50.0);
  expect(p50.size() == 2 && p50[0] == 1.0, "first window p50");
  expect(p50[1] == 7.0, "second window p50 with one failure");
  expect(std::isinf(window_percentiles(timed, 2, 0.0, 0.5, 99.0)[1]),
         "second window p99 is the failure");
  expect(window_percentiles(timed, 1, 0.5, 1.0, 50.0)[0] == 9.0,
         "a later range sees only its own samples");
  expect(std::isnan(window_percentiles(TimedSamples{}, 3, 0.0, 1.0, 50.0)[2]),
         "empty window is NaN");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

void test_self_time() {
  // Hand-built spans: a root of 100 ns with children of 30 and 20 ns; the
  // first child has a 10 ns grandchild.
  SpanRecorder recorder(true);
  const auto root = recorder.intern("root");
  const auto child = recorder.intern("child");
  const auto leaf = recorder.intern("leaf");
  recorder.add(Span{root, -1, 0, 100, 1});
  recorder.add(Span{child, 0, 10, 40, 1});
  recorder.add(Span{leaf, 1, 15, 25, 1});
  recorder.add(Span{child, 0, 50, 70, 2});
  const auto self = recorder.self_ns_by_name();
  expect(self[root] == 50.0, "root self = 100 - 30 - 20");
  expect(self[child] == 40.0, "child self = (30 - 10) + 20");
  expect(self[leaf] == 10.0, "leaf self = 10");
  expect(recorder.total_ns_by_name()[root] == 100.0, "root total");

  // Live spans nest through the open-span stack.
  SpanRecorder live(true);
  const auto outer = live.intern("outer");
  const auto inner = live.intern("inner");
  {
    SpanRecorder::Scope a(live, outer, 7);
    { SpanRecorder::Scope b(live, inner, 7); }
    { SpanRecorder::Scope c(live, inner, 8); }
  }
  expect(live.spans().size() == 3, "three live spans");
  expect(live.spans()[1].parent == 0 && live.spans()[2].parent == 0,
         "live parents follow nesting");
  const auto live_self = live.self_ns_by_name();
  expect(live_self[outer] >= 0.0 && live_self[inner] >= 0.0,
         "self times are non-negative");

  SpanRecorder disabled(false);
  const auto id = disabled.intern("x");
  { SpanRecorder::Scope scope(disabled, id, 0); }
  expect(disabled.spans().empty(), "disabled recorder records nothing");
}

void test_stamping() {
  WorkloadConfig config;
  config.model = "mlp";
  config.pool_frames = 2;
  const Inputs inputs = make_inputs(config, 7);
  auto frame = inputs.pool[1];
  FrameSpec spec;
  spec.session = 3;
  spec.pool = 1;
  spec.label = 2;
  spec.mini_batch = 40;
  spec.task_version = 123456789012ULL;
  stamp_frame(frame, spec, 3, inputs.n_classes);
  fleet::runtime::GradientJob job;
  const fleet::net::WireDecoder decoder;
  expect(decoder.decode(frame, job) == fleet::net::WireError::kOk,
         "stamped frame decodes");
  expect(job.model_id == 3, "model id stamped");
  expect(job.task_version == spec.task_version, "task version stamped");
  expect(job.mini_batch == 40, "mini-batch stamped");
  const auto labels = frame_labels(spec, inputs.n_classes);
  bool same = job.label_dist.n_classes() == labels.n_classes();
  for (std::size_t c = 0; same && c < labels.n_classes(); ++c) {
    same = job.label_dist.count(c) == labels.count(c);
  }
  expect(same, "label block matches frame_labels");
  expect(labels.count(2) == 30 && labels.count(0) == 10,
         "three quarters on the label, the rest on the next class");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_stamping();
  if (failures == 0) std::cout << "fleetbench selftest: ok\n";
  return failures == 0 ? 0 : 1;
}
