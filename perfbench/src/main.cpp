// sarbench: the sarbp benchmark's load generator.
//
//   sarbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans-out FILE] [--source-id TEXT]
//
// --trace 0 measures the end-to-end metrics: one set-up and one untraced
// phase of --seconds, then the output checks on the phase's sampled
// outputs between two batches of set-ups timed for the setup_s median.
// --trace 1 measures the per-layer metrics: an untraced phase and a traced
// phase of half the run each (spans around every call into the library,
// written to --spans-out), then the ladder. The last line of standard
// output is one JSON object; the exit code is non-zero when an output check
// fails or the generator fell behind its schedule.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "backprojection/kernel.h"
#include "harness.h"
#include "ladder.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// A run is invalid when the generator's send lag tail exceeds this.
constexpr double kMaxGenLagTailS = 0.05;
/// After the measured phase, the end-to-end run times a batch of throwaway
/// set-ups, runs the output checks, and times a second batch; setup_s is
/// the median over both batches and the measured instance's own set-up. A
/// batch runs at least kSetupsPerBatch set-ups and lasts at least
/// kSetupBatchSeconds. On a shared host one vCPU can run 30-40% slow for
/// seconds at a time, and the static OpenMP split in sim::collect waits for
/// the slowest vCPU; two batches apart sample two such periods, not one.
/// Both come after the phase so that the throwaway instances' memory does
/// not count in peak_rss_mb.
constexpr int kSetupsPerBatch = 5;
constexpr double kSetupBatchSeconds = 1.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "sarbench: %s\n", msg);
  std::fprintf(stderr,
               "usage: sarbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out FILE] [--source-id TEXT]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else if (key == "--source-id") {
      a.source_id = value;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) usage("--seconds out of range");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_provenance(const Args& a) {
  std::printf("provenance: workload %s, seed %llu, %.1f s, trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("host: %s, nproc %d, runtime ISA %s, compiler %s, source %s\n",
              cpu_model().c_str(), host_workers(),
              sarbp::bp::simd_isa_name(
                  sarbp::bp::asr_resolve_isa(sarbp::bp::SimdIsa::kAuto)),
              __VERSION__, a.source_id.c_str());
}

struct Measured {
  Phase phase;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;  ///< from process start through the phase
};

/// Sets up one instance of the workload and returns it, adding the set-up
/// time to `setup_s`.
std::unique_ptr<Workload> timed_setup(const Args& a, double seconds,
                                      std::vector<double>& setup_s) {
  auto w = make_workload(a.workload);
  const auto t0 = Clock::now();
  w->setup(a.seed, seconds);
  setup_s.push_back(seconds_between(t0, Clock::now()));
  return w;
}

/// Sets the workload up, runs the measured phase, and reads the peak
/// resident set.
Measured measure(const Args& a, double seconds) {
  Measured m;
  m.workload = timed_setup(a, seconds, m.setup_s);
  m.phase = m.workload->run(seconds);
  m.peak_rss_mb = peak_rss_mb();
  return m;
}

/// Sets up instances from scratch, each destroyed at once, only to time
/// them.
void time_setup_batch(const Args& a, Measured& m) {
  const auto t0 = Clock::now();
  for (int i = 0; i < kSetupsPerBatch ||
                  seconds_between(t0, Clock::now()) < kSetupBatchSeconds;
       ++i) {
    timed_setup(a, a.seconds, m.setup_s);
  }
}

double json_number(double v) {
  if (std::isnan(v)) return 0.0;
  if (std::isinf(v)) return v > 0 ? 1e300 : -1e300;
  return v;
}

void print_json(bool correct, const Phase& ph, const MetricList& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ph.attempted),
              static_cast<unsigned long long>(ph.failed));
  bool first = true;
  for (const Metric& m : metrics.all()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), json_number(m.value),
                m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

void print_table(const char* title, const MetricList& metrics) {
  std::printf("\n%s\n%-34s %16s %-8s %8s %s\n", title, "metric", "value",
              "unit", "samples", "source");
  for (const Metric& m : metrics.all()) {
    std::printf("%-34s %16.6g %-8s %8zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.source.c_str());
  }
}

/// The end-to-end metrics of one phase. failed_share and slo_miss_share are
/// printed for reading; the scored values are their complements
/// (served_share, slo_met_share), which never read 0, so a bound taken as a
/// share of a baseline median stays meaningful.
MetricList end_to_end(const Measured& m) {
  const Phase& ph = m.phase;
  const double attempted = static_cast<double>(ph.attempted);
  const double wall = ph.wall_s > 0 ? ph.wall_s : 1e-9;
  const Tail t = tail(ph.latency_s);
  MetricList out;
  out.add("setup_s", median(m.setup_s), "s", m.setup_s.size());
  out.add("peak_rss_mb", m.peak_rss_mb, "MB", 1);
  out.add("served_share",
          attempted > 0 ? (attempted - static_cast<double>(ph.failed)) / attempted
                        : 0.0,
          "share", ph.attempted);
  out.add("bp_per_s", ph.bp_done / wall, "bp/s", ph.latency_s.size());
  out.add("latency_p50_s", median(ph.latency_s), "s", ph.latency_s.size());
  out.add("latency_tail_s", t.value, "s", t.samples);
  out.add("slo_met_share",
          attempted > 0 ? static_cast<double>(ph.within_limit) / attempted : 0.0,
          "share", ph.attempted);
  out.add("goodput_bp_per_s", ph.bp_good / wall, "bp/s", ph.within_limit);
  std::printf("latency_tail_s is p%.2f (%zu samples, %zu beyond it); "
              "latency limit %.4f s\n",
              t.percentile, t.samples, t.beyond, ph.limit_s);
  std::printf("failed_share %.6g (%llu of %llu), slo_miss_share %.6g\n",
              1.0 - out.value("served_share"),
              static_cast<unsigned long long>(ph.failed),
              static_cast<unsigned long long>(ph.attempted),
              1.0 - out.value("slo_met_share"));
  return out;
}

/// Validity and output checks shared by both modes; returns (correct, valid).
std::pair<bool, bool> verdict(const Phase& ph, double lag_tail_s) {
  for (const std::string& e : ph.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  const bool correct = ph.errors.empty() && ph.snr_checks > 0 &&
                       ph.attempted > 0 && !ph.latency_s.empty();
  const bool valid = lag_tail_s <= kMaxGenLagTailS;
  std::printf("checks: %zu SNR checks, margin %.2f dB over the error-model "
              "floor; %s\n",
              ph.snr_checks, ph.snr_margin_db, correct ? "all passed" : "FAILED");
  std::printf("generator lag tail %.6f s (bound %.3f s): %s\n", lag_tail_s,
              kMaxGenLagTailS, valid ? "valid" : "INVALID RUN");
  return {correct, valid};
}

/// Prints the traced phase's time per layer and the checks of each
/// workload's reason for being in the benchmark.
void print_layer_shares(const std::string& workload, const Phase& traced,
                        const MetricList& layer,
                        const std::vector<SpanRecord>& spans) {
  std::printf("\nself time per span (traced phase and ladder):\n");
  double total = 0.0;
  const auto self = self_time_by_name(spans);
  for (const auto& [name, s] : self) total += s;
  for (const auto& [name, s] : self) {
    std::printf("  %-32s %10.4f s %6.1f%%\n", name.c_str(), s,
                total > 0 ? 100.0 * s / total : 0.0);
  }
  const double p50 = median(traced.latency_s);
  auto verdict_line = [](const char* claim, bool holds) {
    std::printf("why: %-70s %s\n", claim, holds ? "holds" : "DOES NOT HOLD");
  };
  if (workload == "frame_closed") {
    const double share = layer.value("service.compute_s_p50") / p50;
    std::printf("job time: compute %.1f%%, queue %.1f%%, setup(hit) %.1f%% of "
                "the latency p50\n",
                100 * share, 100 * layer.value("service.queue_s_p50") / p50,
                100 * layer.value("service.setup_hit_s_p50") / p50);
    verdict_line("backprojection + exec (compute) are >= 80% of job time",
                 share >= 0.8);
  } else if (workload == "tenant_open") {
    const double miss_share = layer.value("service.setup_miss_s_p50") / p50;
    std::printf("plan hit share %.3f; miss setup p50 is %.1f%% of the "
                "latency p50; compute p50 %.1f%%\n",
                layer.value("service.plan_hit_share"), 100 * miss_share,
                100 * layer.value("service.compute_s_p50") / p50);
    verdict_line("plan lookups mostly miss (hit share < 0.5)",
                 layer.value("service.plan_hit_share") < 0.5);
    verdict_line("miss setup is a large share (>= 20%) of latency p50",
                 miss_share >= 0.2);
  } else if (workload == "stream_prf") {
    // The sweep's wall time on the executor the update runs on.
    const double sweep = layer.value("streaming.bp_per_update") /
                         layer.value("backprojection.scalar_bp_per_s") /
                         std::max(1.0, layer.value("exec.speedup"));
    const double fixed = layer.value("streaming.update_s_p50") - sweep;
    std::printf("update p50 %.6f s = sweep %.6f s + fixed %.6f s\n",
                layer.value("streaming.update_s_p50"), sweep, fixed);
    verdict_line("per-update fixed cost exceeds sweep time", fixed > sweep);
  } else {
    std::printf("pipeline: non-BP stages are %.1f%% of backprojection "
                "(paper bar: < 4%%)\n",
                100 * layer.value("pipeline.non_bp_share"));
    verdict_line("the OpenMP Backprojector and all four stages ran",
                 !traced.latency_s.empty() &&
                     layer.value("pipeline.backprojection_s") > 0);
  }
}

int run_end_to_end(const Args& a) {
  Measured m = measure(a, a.seconds);
  time_setup_batch(a, m);
  m.workload->check(m.phase);
  time_setup_batch(a, m);
  MetricList e2e = end_to_end(m);
  const double lag = tail(m.phase.gen_lag_s).value;
  const auto [correct, valid] = verdict(m.phase, lag);
  print_table("end-to-end metrics (untraced run):", e2e);
  print_json(correct, m.phase, e2e);
  return correct && valid ? 0 : 1;
}

int run_traced(const Args& a) {
  // Untraced reference phase for the overhead, then the traced phase; each
  // takes half the run.
  const double half = a.seconds / 2;
  const double untraced_p50 = median(measure(a, half).phase.latency_s);
  Tracer tracer;
  Tracer::install(&tracer);
  Measured m = measure(a, half);
  m.workload->check(m.phase);
  const double traced_p50 = median(m.phase.latency_s);
  MetricList ladder =
      run_ladder(m.workload->ladder_inputs(), m.phase, a.seed);
  Tracer::install(nullptr);

  const Tail lag = tail(m.phase.gen_lag_s);
  MetricList layer;
  layer.add("sim.collect_s", median(m.workload->collect_seconds), "s",
            m.workload->collect_seconds.size(), "setup");
  for (const Metric& x : ladder.all()) layer.add(x);
  layer.add("harness.gen_lag_tail_s", lag.value, "s", lag.samples, "traffic");
  layer.add("harness.trace_overhead_share", traced_p50 / untraced_p50 - 1.0,
            "share", 2, "traffic");
  layer.add("check.snr_margin_db", m.phase.snr_margin_db, "dB",
            m.phase.snr_checks, "check");

  const auto spans = tracer.spans();
  print_layer_shares(a.workload, m.phase, layer, spans);
  if (!a.spans_out.empty()) {
    if (tracer.write_json(a.spans_out)) {
      std::printf("spans: %zu written to %s\n", spans.size(),
                  a.spans_out.c_str());
    } else {
      std::printf("spans: could not write %s\n", a.spans_out.c_str());
    }
  }
  const auto [correct, valid] = verdict(m.phase, lag.value);
  print_table("per-layer metrics (traced run and ladder):", layer);
  print_json(correct, m.phase, layer);
  return correct && valid ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (make_workload(args.workload) == nullptr) usage("unknown workload");
  print_provenance(args);
  try {
    return args.trace ? run_traced(args) : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sarbench: %s\n", e.what());
    return 1;
  }
}
