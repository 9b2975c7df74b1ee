// Shared machinery of the sarbp benchmark: clocks, order statistics, the
// span tracer, and the result records the workloads and the ladder fill.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] double median(std::vector<double> values);

/// The 95th percentile, moved down where needed so that at least ten
/// samples lie beyond it: with n sorted samples and k = max(10, n / 20)
/// samples beyond, the (n - k)th, standing for percentile 100 (n - k) / n.
/// From 200 samples on it is p95 whatever the run length or throughput.
/// Below 11 samples it falls back to the maximum (`beyond` says how many
/// samples actually lie above the reported value).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> values);

/// One reported number. `samples` is how many observations stand behind
/// it; `source` says where a per-layer value came from ("traffic" or
/// "ladder").
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string source;
};

class MetricList {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples, std::string source = {});
  void add(Metric m) { metrics_.push_back(std::move(m)); }
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Outcome of one measured phase of a workload. Latencies are timed from
/// each request's scheduled send time; failures include refusals and
/// expiries.
struct Phase {
  std::vector<double> latency_s;  ///< completed attempts only
  std::vector<double> gen_lag_s;  ///< actual send - scheduled send
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t within_limit = 0;  ///< completed no later than limit_s
  double limit_s = 0.0;
  double bp_done = 0.0;  ///< backprojections of completed attempts
  double bp_good = 0.0;  ///< backprojections of attempts within the limit
  double wall_s = 0.0;
  /// Per-layer numbers this phase's traffic measured.
  MetricList layer;
  /// Output-check failures; empty means every sampled output passed.
  std::vector<std::string> errors;
  /// Smallest measured-minus-predicted SNR over the checked outputs.
  double snr_margin_db = std::numeric_limits<double>::infinity();
  std::size_t snr_checks = 0;

  void check_snr(double measured_db, double predicted_db,
                 const std::string& what);
};

// --------------------------------------------------------------- tracing ---
//
// Spans are recorded by the benchmark's own code around its calls into the
// library's public functions; the library itself is not instrumented.
// Tracing is off unless a Tracer is installed, and an uninstalled tracer
// costs one relaxed load per span.

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not tied to one request
  std::uint32_t thread = 0;
  double start_s = 0.0;  ///< since the tracer's epoch
  double end_s = 0.0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Installs `t` as the process tracer (null turns tracing off).
  static void install(Tracer* t);
  [[nodiscard]] static Tracer* active();

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] double since_epoch(Clock::time_point t) const {
    return seconds_between(epoch_, t);
  }
  void record(SpanRecord span);
  [[nodiscard]] std::uint64_t next_id();
  /// Writes every span as one JSON document; false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call into a layer. Nested spans on the same thread
/// record the enclosing span as their parent.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_;
};

/// Self time per span name over the recorded spans: each span's duration
/// minus the part covered by its children.
[[nodiscard]] std::vector<std::pair<std::string, double>> self_time_by_name(
    const std::vector<SpanRecord>& spans);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Runs `fn` repeatedly until at least `min_reps` runs and `budget_s`
/// seconds have been spent (at most `max_reps` runs); returns each run's
/// wall time.
template <class Fn>
std::vector<double> time_repeated(Fn&& fn, int min_reps, double budget_s,
                                  int max_reps = 25) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (static_cast<int>(times.size()) < max_reps &&
         (static_cast<int>(times.size()) < min_reps ||
          seconds_between(start, Clock::now()) < budget_s)) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return times;
}

}  // namespace perfbench
