#pragma once

// Measurement helpers of the serving benchmark: clock, order statistics
// that count failures, and an in-memory span recorder with self-time
// attribution. Everything here is single-threaded by design; each thread
// that records spans owns its own SpanRecorder.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace fleetbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median of `values` (mean of the two middle values for even counts);
/// 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile `p` (0 < p <= 100) over `samples` plus
/// `failures` extra samples that count as +infinity: a refused or failed
/// operation misses every latency limit, so it ranks above every measured
/// sample. Returns kInf when the rank lands on a failure and NaN when there
/// is nothing at all.
double percentile_with_failures(std::vector<double> samples,
                                std::size_t failures, double p);

/// Latency samples of an open-loop leg keyed by their due time (seconds
/// from the leg's start), plus the due times of operations that failed.
struct TimedSamples {
  std::vector<std::pair<double, double>> samples;  ///< (due offset, value)
  std::vector<double> failures;                    ///< due offsets

  void add(double at, double value) { samples.emplace_back(at, value); }
  void fail(double at) { failures.push_back(at); }
};

/// Split [begin_s, end_s) into `windows` equal windows by due time and
/// return each window's percentile_with_failures (NaN for an empty window).
/// Samples due outside the range are ignored.
std::vector<double> window_percentiles(const TimedSamples& timed,
                                       std::size_t windows, double begin_s,
                                       double end_s, double p);

/// One closed span. `parent` is the index of the enclosing span in the same
/// recorder (-1 for a root); `gid` identifies the gradient (or batch) the
/// work belongs to.
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t gid = 0;
};

/// In-memory span recorder for one thread. Spans nest through an explicit
/// open-span stack, so a span's parent is whatever span was open when it
/// began. Disabled recorders record nothing and cost one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

  /// Stable small id for a span name (interned on first use).
  std::uint32_t intern(std::string_view name);

  /// Open a span; returns its index (or -1 when disabled).
  std::int32_t begin(std::uint32_t name, std::uint64_t gid);
  /// Close the innermost open span, which must be `index`.
  void end(std::int32_t index);

  /// RAII form of begin/end.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::uint32_t name, std::uint64_t gid)
        : recorder_(recorder), index_(recorder.begin(name, gid)) {}
    ~Scope() { recorder_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::int32_t index_;
  };

  /// Append an already closed span with known timings.
  void add(const Span& span) { spans_.push_back(span); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its self time in ns — its duration minus the part its
  /// direct children cover (children never overlap on one thread, so that
  /// part is the sum of their durations).
  std::vector<double> self_ns_per_span() const;
  /// Per name id: total self time in ns.
  std::vector<double> self_ns_by_name() const;
  /// Per name id: total duration in ns (self + children).
  std::vector<double> total_ns_by_name() const;

  /// Write every span as CSV (name,start_ns,end_ns,parent,gid).
  bool write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace fleetbench
