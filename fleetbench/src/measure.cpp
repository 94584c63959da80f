#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace fleetbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile_with_failures(std::vector<double> samples,
                                std::size_t failures, double p) {
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile_with_failures: p outside (0,100]");
  }
  const std::size_t total = samples.size() + failures;
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  // Nearest rank: the smallest value with at least p% of the population at
  // or below it (1-based rank ceil(p/100 * n)).
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(total) - 1e-9));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  if (index >= samples.size()) return std::numeric_limits<double>::infinity();
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

std::vector<double> window_percentiles(const TimedSamples& timed,
                                       std::size_t windows, double begin_s,
                                       double end_s, double p) {
  windows = std::max<std::size_t>(windows, 1);
  const double width = (end_s - begin_s) / static_cast<double>(windows);
  std::vector<std::vector<double>> values(windows);
  std::vector<std::size_t> failures(windows, 0);
  // Window index of a due time, or `windows` when it is out of range.
  auto window_of = [&](double at) {
    if (!(at >= begin_s && at < end_s) || width <= 0.0) return windows;
    return std::min(windows - 1, static_cast<std::size_t>((at - begin_s) / width));
  };
  for (const auto& [at, value] : timed.samples) {
    const std::size_t w = window_of(at);
    if (w < windows) values[w].push_back(value);
  }
  for (const double at : timed.failures) {
    const std::size_t w = window_of(at);
    if (w < windows) ++failures[w];
  }
  std::vector<double> result;
  for (std::size_t w = 0; w < windows; ++w) {
    result.push_back(percentile_with_failures(std::move(values[w]), failures[w], p));
  }
  return result;
}

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanRecorder::begin(std::uint32_t name, std::uint64_t gid) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.gid = gid;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(std::int32_t index) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanRecorder: spans closed out of order");
  }
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

std::vector<double> SpanRecorder::self_ns_per_span() const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    self[i] += duration;
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= duration;
  }
  return self;
}

std::vector<double> SpanRecorder::self_ns_by_name() const {
  const std::vector<double> per_span = self_ns_per_span();
  std::vector<double> self(names_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += per_span[i];
  }
  return self;
}

std::vector<double> SpanRecorder::total_ns_by_name() const {
  std::vector<double> total(names_.size(), 0.0);
  for (const Span& span : spans_) {
    total[span.name] += static_cast<double>(span.end_ns - span.start_ns);
  }
  return total;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,start_ns,end_ns,parent,gid\n";
  for (const Span& span : spans_) {
    out << names_[span.name] << ',' << span.start_ns << ',' << span.end_ns
        << ',' << span.parent << ',' << span.gid << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace fleetbench
