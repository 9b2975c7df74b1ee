#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) {
    t.value = values.back();
    t.percentile = 100.0;
    t.beyond = 0;
    return t;
  }
  t.beyond = std::max<std::size_t>(10, n / 20);
  t.value = values[n - 1 - t.beyond];
  t.percentile =
      100.0 * static_cast<double>(n - t.beyond) / static_cast<double>(n);
  return t;
}

void MetricList::add(std::string name, double value, std::string unit,
                     std::size_t samples, std::string source) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples,
                            std::move(source)});
}

const Metric* MetricList::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double MetricList::value(const std::string& name) const {
  const Metric* m = find(name);
  return m == nullptr ? std::nan("") : m->value;
}

void Phase::check_snr(double measured_db, double predicted_db,
                      const std::string& what) {
  ++snr_checks;
  const double margin = measured_db - predicted_db;
  snr_margin_db = std::min(snr_margin_db, margin);
  if (!(margin >= 0.0)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: SNR %.2f dB below the error-model floor %.2f dB",
                  what.c_str(), measured_db, predicted_db);
    errors.emplace_back(buf);
  }
}

// --------------------------------------------------------------- tracing ---

namespace {

std::atomic<Tracer*> g_tracer{nullptr};

struct ThreadSpans {
  std::uint32_t thread = 0;
  std::vector<std::uint64_t> open;  ///< ids of the spans open on this thread
};

ThreadSpans& thread_spans() {
  static std::atomic<std::uint32_t> next_thread{0};
  thread_local ThreadSpans state{next_thread.fetch_add(1), {}};
  return state;
}

void write_escaped(std::FILE* f, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

void Tracer::install(Tracer* t) { g_tracer.store(t); }

Tracer* Tracer::active() {
  // Relaxed: the tracer is installed before the traced phase starts any
  // thread and removed after they are joined.
  return g_tracer.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::next_id() { return next_id_.fetch_add(1); }

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"schema\": \"sarbp.perfbench.spans.v1\", \"spans\": [");
  bool first = true;
  for (const SpanRecord& s : spans()) {
    std::fprintf(f, "%s\n {\"name\": \"", first ? "" : ",");
    write_escaped(f, s.name);
    std::fprintf(f,
                 "\", \"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"thread\": %u, \"start_s\": %.9f, \"end_s\": %.9f}",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread,
                 s.start_s, s.end_s);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t request)
    : tracer_(Tracer::active()), name_(name), request_(request) {
  if (tracer_ == nullptr) return;
  ThreadSpans& ts = thread_spans();
  id_ = tracer_->next_id();
  parent_ = ts.open.empty() ? 0 : ts.open.back();
  ts.open.push_back(id_);
  start_ = Clock::now();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  const auto end = Clock::now();
  ThreadSpans& ts = thread_spans();
  ts.open.pop_back();
  tracer_->record(SpanRecord{name_, id_, parent_, request_, ts.thread,
                             tracer_->since_epoch(start_),
                             tracer_->since_epoch(end)});
}

std::vector<std::pair<std::string, double>> self_time_by_name(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, double> child_time;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    const auto it = child_time.find(s.id);
    const double children = it == child_time.end() ? 0.0 : it->second;
    self[s.name] += std::max(0.0, (s.end_s - s.start_s) - children);
  }
  std::vector<std::pair<std::string, double>> out(self.begin(), self.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
