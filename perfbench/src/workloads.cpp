#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/snr.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "sim/collector.h"
#include "streaming/streaming.h"
#include "streaming/subaperture_cache.h"

namespace perfbench {

using namespace sarbp;

int host_workers() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

namespace {

/// Sleeps until shortly before `t`, then spins: a plain sleep wakes tens of
/// microseconds late, which is the size of a streaming update.
void sleep_until(Clock::time_point t) {
  std::this_thread::sleep_until(t - std::chrono::microseconds(200));
  while (Clock::now() < t) {
  }
}

Clock::time_point at(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

/// service.* per-layer numbers from the JobResults of formation jobs.
struct JobStats {
  std::vector<double> queue, setup_hit, setup_miss, compute;
  std::uint64_t submits = 0;
  std::uint64_t refused = 0;

  void add(const service::JobResult& r) {
    queue.push_back(r.queue_seconds);
    (r.plan_cache_hit ? setup_hit : setup_miss).push_back(r.setup_seconds);
    compute.push_back(r.compute_seconds);
  }

  /// Misses seen only in setup (the warm-up job) stand in for an empty
  /// traffic sample.
  void emit(MetricList& out, const JobStats& warmup) const {
    const Tail q = tail(queue);
    out.add("service.queue_s_p50", median(queue), "s", queue.size(),
            "traffic");
    out.add("service.queue_s_tail", q.value, "s", q.samples, "traffic");
    const auto& miss = setup_miss.empty() ? warmup.setup_miss : setup_miss;
    out.add("service.setup_miss_s_p50", median(miss), "s", miss.size(),
            setup_miss.empty() ? "setup" : "traffic");
    out.add("service.setup_hit_s_p50", median(setup_hit), "s",
            setup_hit.size(), "traffic");
    out.add("service.compute_s_p50", median(compute), "s", compute.size(),
            "traffic");
    const double lookups =
        static_cast<double>(setup_hit.size() + setup_miss.size());
    out.add("service.plan_hit_share",
            lookups > 0 ? static_cast<double>(setup_hit.size()) / lookups : 0.0,
            "share", setup_hit.size() + setup_miss.size(), "traffic");
    out.add("service.rejected_share",
            submits > 0 ? static_cast<double>(refused) /
                              static_cast<double>(submits)
                        : 0.0,
            "share", submits, "traffic");
  }
};

/// Records one finished attempt into the phase.
void record_attempt(Phase& ph, double latency_s, double bp) {
  ph.latency_s.push_back(latency_s);
  ph.bp_done += bp;
  if (latency_s <= ph.limit_s) {
    ++ph.within_limit;
    ph.bp_good += bp;
  }
}

/// Library defaults except one worker per core, with a private registry.
service::ServiceConfig base_service_config(obs::Registry& registry) {
  service::ServiceConfig config;
  config.workers = host_workers();
  config.metrics = &registry;
  return config;
}

// ------------------------------------------------------------ frame_closed ---
//
// One client in a closed loop forms one wide-area image again and again on
// one collection geometry. The plan is built during setup, so every timed
// job hits the plan cache: backprojection and the executor do nearly all
// the work.

class FrameClosed final : public Workload {
 public:
  static constexpr Index kPixels = 512;
  static constexpr Index kPulses = 256;
  /// The paper's real-time constraint: one image per second.
  static constexpr double kLimitS = 1.0;
  static constexpr std::size_t kKeptImages = 2;

  void setup(std::uint64_t seed, double) override {
    Rng rng(seed);
    col_ = cluster_collection(kPixels, kPulses, side_on_aspect(rng), rng,
                              collect_seconds);
    service_ = std::make_unique<service::ImageFormationService>(
        base_service_config(registry_));
    Span span("service.warmup");
    auto out = service_->submit(request());
    if (!out.admitted()) throw std::runtime_error("frame_closed: warm-up refused");
    const service::JobResult& r = out.handle->wait();
    if (r.state != service::JobState::kDone) {
      throw std::runtime_error("frame_closed: warm-up job did not finish");
    }
    warmup_.add(r);
  }

  Phase run(double seconds) override {
    Phase ph;
    ph.limit_s = kLimitS;
    JobStats stats;
    const double bp = col_.backprojections();
    const auto t0 = Clock::now();
    const auto end = at(t0, seconds);
    auto due = t0;  // closed loop: the next request is due when one returns
    std::uint64_t id = 0;
    while (Clock::now() < end) {
      const auto sent = Clock::now();
      ph.gen_lag_s.push_back(seconds_between(due, sent));
      ++ph.attempted;
      ++stats.submits;
      ++id;
      service::SubmitOutcome out;
      {
        Span span("service.submit", id);
        out = service_->submit(request());
      }
      if (!out.admitted()) {
        ++stats.refused;
        ++ph.failed;
        due = Clock::now();
        continue;
      }
      {
        Span span("service.wait", id);
        out.handle->wait();
      }
      const auto done = Clock::now();
      const service::JobResult& r = out.handle->result();
      if (r.state != service::JobState::kDone) {
        ++ph.failed;
      } else {
        record_attempt(ph, seconds_between(due, done), bp);
        stats.add(r);
        // Keep the first image and the latest one for the output check.
        if (kept_.size() < kKeptImages) {
          kept_.push_back(r.image);
        } else {
          kept_.back() = r.image;
        }
      }
      due = done;
    }
    ph.wall_s = seconds_between(t0, due);
    stats.emit(ph.layer, warmup_);
    return ph;
  }

  void check(Phase& ph) override {
    if (kept_.empty()) {
      ph.errors.emplace_back("frame_closed: no job completed");
      return;
    }
    const Grid2D<CDouble> ref = reference_image(*col_.history, col_.grid);
    const double floor =
        predicted_floor_db(*col_.history, col_.grid, asr::kDefaultBlock);
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      ph.check_snr(snr_db(kept_[i], ref), floor,
                   "frame_closed image " + std::to_string(i));
    }
  }

  [[nodiscard]] LadderInputs ladder_inputs() const override {
    LadderInputs in;
    in.jobs = {col_};
    in.block = asr::kDefaultBlock;
    in.bp_per_job = col_.backprojections();
    in.service_traffic = true;
    return in;
  }

 private:
  service::ImageFormationRequest request() const {
    service::ImageFormationRequest req;
    req.grid = col_.grid;
    req.pulses = col_.history;
    req.tenant = "frame";
    return req;
  }

  obs::Registry registry_;
  Collection col_;
  std::unique_ptr<service::ImageFormationService> service_;
  JobStats warmup_;
  std::vector<Grid2D<CFloat>> kept_;
};

// ------------------------------------------------------------- tenant_open ---
//
// Open-loop arrivals from four weighted tenants with mixed priorities over
// a pool of 48 distinct scenes — six times the default 8-entry plan cache —
// with skewed reuse, so most plan lookups miss and the ASR table build sits
// on the job path. Scenes are 192-384 px: at 96-192 px a job lasts about as
// long as the host's scheduling hiccups, and the latency tail is noise.

class TenantOpen final : public Workload {
 public:
  /// Offered load, jobs per second: about a quarter of what four workers
  /// form on a 4-core host, so the queue stays bounded.
  static constexpr double kRate = 20.0;
  static constexpr double kLimitS = 0.25;
  static constexpr Index kSizes[] = {192, 256, 320, 384};
  static constexpr Index kPulses[] = {32, 64, 96};
  static constexpr int kClasses = 12;  ///< sizes x pulse counts
  static constexpr int kPerClass = 4;  ///< distinct scenes per class
  /// Popularity of the scenes within a class (hottest first).
  static constexpr double kSceneWeights[kPerClass] = {0.55, 0.25, 0.12, 0.08};
  static constexpr int kTenants = 4;
  static constexpr double kTenantWeights[kTenants] = {4.0, 2.0, 1.0, 1.0};
  static constexpr int kWarmupJobs = 16;
  static constexpr std::size_t kCheckEvery = 64;

  struct Arrival {
    double at_s = 0.0;
    int scene = 0;
    int tenant = 0;
    service::Priority priority = service::Priority::kNormal;
  };

  void setup(std::uint64_t seed, double seconds) override {
    Rng rng(seed);
    for (int c = 0; c < kClasses; ++c) {
      for (int j = 0; j < kPerClass; ++j) {
        pool_.push_back(cluster_collection(kSizes[c % 4], kPulses[c / 4],
                                           side_on_aspect(rng), rng,
                                           collect_seconds));
      }
    }
    const auto count = static_cast<std::size_t>(std::lround(kRate * seconds));
    warmup_ = draw(kWarmupJobs, 0.0, rng);
    arrivals_ = draw(count, seconds, rng);

    service::ServiceConfig config = base_service_config(registry_);
    for (int t = 0; t < kTenants; ++t) {
      config.tenant_policies[tenant_name(t)].weight = kTenantWeights[t];
    }
    service_ = std::make_unique<service::ImageFormationService>(config);
    Span span("service.warmup");
    for (const Arrival& a : warmup_) {
      auto out = service_->submit(request(a));
      if (!out.admitted()) throw std::runtime_error("tenant_open: warm-up refused");
      const service::JobResult& r = out.handle->wait();
      if (r.state != service::JobState::kDone) {
        throw std::runtime_error("tenant_open: warm-up job did not finish");
      }
      warmup_stats_.add(r);
    }
  }

  Phase run(double) override {
    Phase ph;
    ph.limit_s = kLimitS;
    JobStats stats;

    struct Pending {
      std::shared_ptr<service::JobHandle> handle;
      Clock::time_point scheduled;
      Clock::time_point sent;
      std::size_t index = 0;
    };
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool closed = false;
    // Written by the observer only; read after it is joined.
    Clock::time_point last_done{};
    std::uint64_t observer_failed = 0;

    // Observer: resolves handles in submission order. Latency comes from the
    // handle's own admission-to-terminal time plus the send delay, so the
    // order of waiting does not bias it.
    std::thread observer([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return closed || !queue.empty(); });
          if (queue.empty()) return;
          p = std::move(queue.front());
          queue.pop_front();
        }
        {
          Span span("service.wait", p.index + 1);
          p.handle->wait();
        }
        const service::JobResult& r = p.handle->result();
        const Arrival& a = arrivals_[p.index];
        if (r.state != service::JobState::kDone) {
          ++observer_failed;
          continue;
        }
        const double latency =
            seconds_between(p.scheduled, p.sent) + r.latency_seconds;
        record_attempt(ph, latency, pool_[a.scene].backprojections());
        stats.add(r);
        last_done = std::max(last_done, at(p.sent, r.latency_seconds));
        if (p.index % kCheckEvery == 0) {
          kept_.push_back({a.scene, r.image});
        }
      }
    });

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
      const Arrival& a = arrivals_[i];
      const auto scheduled = at(t0, a.at_s);
      sleep_until(scheduled);
      const auto sent = Clock::now();
      ph.gen_lag_s.push_back(seconds_between(scheduled, sent));
      ++ph.attempted;
      ++stats.submits;
      service::SubmitOutcome out;
      {
        Span span("service.submit", i + 1);
        out = service_->submit(request(a));
      }
      if (!out.admitted()) {
        ++stats.refused;
        ++ph.failed;
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        queue.push_back(Pending{std::move(out.handle), scheduled, sent, i});
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      closed = true;
    }
    cv.notify_one();
    observer.join();
    ph.failed += observer_failed;
    ph.wall_s = seconds_between(t0, std::max(t0, last_done));
    stats.emit(ph.layer, warmup_stats_);
    return ph;
  }

  void check(Phase& ph) override {
    if (kept_.empty()) {
      ph.errors.emplace_back("tenant_open: no sampled job completed");
      return;
    }
    std::map<int, Grid2D<CDouble>> refs;
    for (const auto& [scene, image] : kept_) {
      const Collection& c = pool_[scene];
      auto it = refs.find(scene);
      if (it == refs.end()) {
        it = refs.emplace(scene, reference_image(*c.history, c.grid)).first;
      }
      ph.check_snr(snr_db(image, it->second),
                   predicted_floor_db(*c.history, c.grid, asr::kDefaultBlock),
                   "tenant_open scene " + std::to_string(scene));
    }
  }

  [[nodiscard]] LadderInputs ladder_inputs() const override {
    LadderInputs in;
    // The hottest scene of every class: one geometry per (size, pulses)
    // pair, the representative one (160 px, 64 pulses) first.
    const int first = 2 + 4;
    in.jobs.push_back(pool_[first * kPerClass]);
    for (int c = 0; c < kClasses; ++c) {
      if (c != first) in.jobs.push_back(pool_[c * kPerClass]);
    }
    in.block = asr::kDefaultBlock;
    double bp = 0.0;
    for (const Arrival& a : arrivals_) bp += pool_[a.scene].backprojections();
    in.bp_per_job = arrivals_.empty() ? 0.0 : bp / arrivals_.size();
    in.service_traffic = true;
    return in;
  }

 private:
  static std::string tenant_name(int t) { return "t" + std::to_string(t); }

  /// `count` arrivals, uniform over [0, span_s) (a Poisson process
  /// conditioned on its count, so the offered load is exact). Every size
  /// class receives the same number of requests; within a class the scene
  /// is drawn by popularity.
  std::vector<Arrival> draw(std::size_t count, double span_s, Rng& rng) const {
    std::vector<int> classes(count);
    for (std::size_t i = 0; i < count; ++i) {
      classes[i] = static_cast<int>(i % kClasses);
    }
    for (std::size_t i = count; i > 1; --i) {
      std::swap(classes[i - 1], classes[rng.below(i)]);
    }
    std::vector<double> times(count);
    for (double& t : times) t = rng.uniform(0.0, span_s);
    std::sort(times.begin(), times.end());
    std::vector<Arrival> out(count);
    for (std::size_t i = 0; i < count; ++i) {
      double u = rng.uniform();
      int j = 0;
      while (j + 1 < kPerClass && u >= kSceneWeights[j]) u -= kSceneWeights[j++];
      const double p = rng.uniform();
      out[i].at_s = times[i];
      out[i].scene = classes[i] * kPerClass + j;
      out[i].tenant = static_cast<int>(rng.below(kTenants));
      out[i].priority = p < 0.2   ? service::Priority::kHigh
                        : p < 0.8 ? service::Priority::kNormal
                                  : service::Priority::kLow;
    }
    return out;
  }

  service::ImageFormationRequest request(const Arrival& a) const {
    service::ImageFormationRequest req;
    req.grid = pool_[a.scene].grid;
    req.pulses = pool_[a.scene].history;
    req.priority = a.priority;
    req.tenant = tenant_name(a.tenant);
    return req;
  }

  obs::Registry registry_;
  std::vector<Collection> pool_;
  std::vector<Arrival> warmup_;
  std::vector<Arrival> arrivals_;
  std::unique_ptr<service::ImageFormationService> service_;
  JobStats warmup_stats_;
  std::vector<std::pair<int, Grid2D<CFloat>>> kept_;
};

// -------------------------------------------------------------- stream_prf ---
//
// Three sliding-aperture sessions fed at a fixed pulse rate: two watch the
// same scene through one shared SubApertureCache, one watches a distinct
// scene. Each update is a small custom job (one ASR block of a 64 x 64
// grid), so a fixed per-job cost shows here long before it shows on a
// frame. One update in 17 is a re-anchor, so the p95 tail falls among the
// re-anchor updates; the rate is low enough that it does not fall among
// host scheduling hiccups.

class StreamPrf final : public Workload {
 public:
  static constexpr Index kPixels = 64;
  /// Pulses per second per session (the radar's PRF).
  static constexpr double kPrf = 100.0;
  static constexpr int kSessions = 3;
  /// Fraction of a chunk period each session's feed is offset by.
  static constexpr double kOffsets[kSessions] = {0.0, 0.5, 0.25};

  void setup(std::uint64_t seed, double seconds) override {
    Rng rng(seed);
    grid_ = geometry::ImageGrid(kPixels, kPixels, 0.5);
    streaming::StreamConfig shape;
    shape.grid = grid_;
    chunk_ = shape.chunk_pulses;
    period_s_ = static_cast<double>(chunk_) / kPrf;
    warm_chunks_ = shape.window_chunks;
    timed_chunks_ = static_cast<Index>(std::floor(seconds / period_s_));
    // Spare chunks let the check drive a session to its next re-anchor.
    const Index spare = shape.reanchor_interval + 2;
    const Index total = (warm_chunks_ + timed_chunks_ + spare) * chunk_;

    geometry::TrajectoryErrorModel errors;
    errors.perturbation_sigma_m = 0.05;
    for (int scene = 0; scene < 2; ++scene) {
      const sim::ReflectorScene reflectors =
          sim::make_cluster_scene(grid_, sim::ClusterSceneParams{}, rng);
      geometry::OrbitParams orbit = standard_orbit(side_on_aspect(rng));
      orbit.prf_hz = kPrf;
      const Collection c = collect(grid_, reflectors, orbit, errors, total,
                                   0.0, rng, collect_seconds);
      std::vector<std::shared_ptr<const sim::PhaseHistory>> chunks;
      for (Index p = 0; p + chunk_ <= total; p += chunk_) {
        chunks.push_back(std::make_shared<const sim::PhaseHistory>(
            slice(*c.history, p, p + chunk_)));
      }
      feeds_.push_back(std::move(chunks));
    }

    service_ = std::make_unique<service::ImageFormationService>(
        base_service_config(registry_));
    streaming::SubApertureCacheConfig cache_config;
    cache_config.metrics = &registry_;
    cache_ = std::make_unique<streaming::SubApertureCache>(cache_config);
    for (int s = 0; s < kSessions; ++s) {
      streaming::StreamConfig config = shape;
      config.tenant = "stream" + std::to_string(s);
      config.cache = cache_.get();
      configs_.push_back(config);
      sessions_.push_back(streaming::open_stream(*service_, config));
    }
    Span span("streaming.warmup");
    for (int s = 0; s < kSessions; ++s) {
      for (Index k = 0; k < warm_chunks_; ++k) push(s, k);
    }
    for (auto& session : sessions_) {
      if (!session.wait_idle(std::chrono::seconds(30))) {
        throw std::runtime_error("stream_prf: warm-up did not finish");
      }
    }
  }

  Phase run(double) override {
    Phase ph;
    ph.limit_s = period_s_;  // an update must land before the next chunk
    const double bp_per_update =
        static_cast<double>(grid_.width() * grid_.height() * chunk_);
    struct Event {
      double at_s;
      int session;
      Index chunk;  ///< timed chunk index
    };
    std::vector<Event> events;
    for (Index k = 0; k < timed_chunks_; ++k) {
      for (int s = 0; s < kSessions; ++s) {
        events.push_back(Event{(static_cast<double>(k) + 1.0 + kOffsets[s]) *
                                   period_s_,
                               s, k});
      }
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.at_s < b.at_s; });

    std::vector<streaming::StreamStats> before;
    for (auto& session : sessions_) before.push_back(session.stats());
    // Send time (since t0) of every timed chunk.
    std::vector<std::vector<double>> sent(
        kSessions, std::vector<double>(static_cast<std::size_t>(timed_chunks_)));
    std::vector<std::uint64_t> seen(kSessions,
                                    static_cast<std::uint64_t>(warm_chunks_));
    std::vector<double> update_latency;
    std::uint64_t superseded = 0;
    const auto scheduled_s = [&](int s, Index k) {
      return (static_cast<double>(k) + 1.0 + kOffsets[s]) * period_s_;
    };
    // Collects the snapshots published since the last call. The generator
    // calls it after every push, more often than any one session publishes;
    // seq - 1 - warm-up updates is the timed chunk. A snapshot superseded
    // before it was seen gets its successor's publish time, an upper bound.
    const auto observe = [&] {
      for (int s = 0; s < kSessions; ++s) {
        const std::shared_ptr<const streaming::Snapshot> snap =
            sessions_[s].latest();
        if (snap == nullptr || snap->seq <= seen[s]) continue;
        const auto last = static_cast<Index>(snap->seq) - 1 - warm_chunks_;
        if (last >= 0 && last < timed_chunks_) {
          update_latency.push_back(snap->latency_seconds);
          const double published =
              sent[s][static_cast<std::size_t>(last)] + snap->latency_seconds;
          for (auto seq = seen[s] + 1; seq <= snap->seq; ++seq) {
            const auto k = static_cast<Index>(seq) - 1 - warm_chunks_;
            if (k < 0) continue;
            record_attempt(ph, published - scheduled_s(s, k), bp_per_update);
          }
        }
        superseded += snap->seq - seen[s] - 1;
        seen[s] = snap->seq;
      }
    };

    const auto t0 = Clock::now();
    for (const Event& e : events) {
      const auto scheduled = at(t0, e.at_s);
      sleep_until(scheduled);
      const auto now = Clock::now();
      ph.gen_lag_s.push_back(seconds_between(scheduled, now));
      sent[e.session][static_cast<std::size_t>(e.chunk)] =
          seconds_between(t0, now);
      ++ph.attempted;
      push(e.session, warm_chunks_ + e.chunk);
      observe();
    }
    for (auto& session : sessions_) session.wait_idle(std::chrono::seconds(30));
    ph.wall_s = seconds_between(t0, Clock::now());
    observe();
    if (superseded > 0) {
      std::printf("stream_prf: %llu snapshots superseded before observed\n",
                  static_cast<unsigned long long>(superseded));
    }

    streaming::StreamStats delta;
    for (int s = 0; s < kSessions; ++s) {
      const streaming::StreamStats now = sessions_[s].stats();
      delta.updates_completed +=
          now.updates_completed - before[s].updates_completed;
      delta.updates_failed += (now.updates_failed - before[s].updates_failed) +
                              (now.updates_cancelled -
                               before[s].updates_cancelled) +
                              (now.updates_expired - before[s].updates_expired) +
                              (now.updates_rejected -
                               before[s].updates_rejected);
      delta.reanchors += now.reanchors - before[s].reanchors;
      delta.backprojections += now.backprojections - before[s].backprojections;
      delta.cache_hits += now.cache_hits - before[s].cache_hits;
    }
    ph.failed = delta.updates_failed;
    const double updates = static_cast<double>(delta.updates_completed);
    const Tail t = tail(update_latency);
    ph.layer.add("streaming.update_s_p50", median(update_latency), "s",
                 update_latency.size(), "traffic");
    ph.layer.add("streaming.update_s_tail", t.value, "s", t.samples, "traffic");
    ph.layer.add("streaming.cache_hit_share",
                 updates > 0 ? static_cast<double>(delta.cache_hits) / updates : 0.0,
                 "share", delta.updates_completed, "traffic");
    ph.layer.add("streaming.bp_per_update",
                 updates > 0 ? static_cast<double>(delta.backprojections) / updates
                             : 0.0,
                 "count", delta.updates_completed, "traffic");
    ph.layer.add("streaming.reanchor_share",
                 updates > 0 ? static_cast<double>(delta.reanchors) / updates : 0.0,
                 "share", delta.updates_completed, "traffic");
    return ph;
  }

  void check(Phase& ph) override {
    // Drive the distinct-scene session to its next re-anchor; the snapshot
    // it publishes must equal a from-scratch reform of its window bit for
    // bit.
    const int s = kSessions - 1;
    const Index base = warm_chunks_ + timed_chunks_;
    bool anchored = false;
    for (Index k = base; k < static_cast<Index>(feeds_[1].size()); ++k) {
      push(s, k);
      sessions_[s].wait_idle(std::chrono::seconds(30));
      const auto snap = sessions_[s].latest();
      if (snap != nullptr && snap->reanchored) {
        anchored = true;
        break;
      }
    }
    if (!anchored) {
      ph.errors.emplace_back("stream_prf: no re-anchor within the spare chunks");
    } else {
      const sim::PhaseHistory window = sessions_[s].window_history();
      const Grid2D<CFloat> reform =
          streaming::reform_window(configs_[s], window);
      if (!(sessions_[s].latest()->image == reform)) {
        ph.errors.emplace_back(
            "stream_prf: re-anchored snapshot differs from reform_window");
      }
    }
    // Every session's latest image against the double-precision reference
    // of its applied window.
    for (int i = 0; i < kSessions; ++i) {
      sessions_[i].wait_idle(std::chrono::seconds(30));
      const auto snap = sessions_[i].latest();
      const sim::PhaseHistory window = sessions_[i].window_history();
      if (snap == nullptr || window.num_pulses() == 0) {
        ph.errors.push_back("stream_prf: session " + std::to_string(i) +
                            " has no snapshot");
        continue;
      }
      ph.check_snr(snr_db(snap->image, reference_image(window, grid_)),
                   predicted_floor_db(window, grid_, configs_[i].asr_block_w),
                   "stream_prf session " + std::to_string(i));
    }
  }

  [[nodiscard]] LadderInputs ladder_inputs() const override {
    LadderInputs in;
    // The ladder times the update's unit of work: one chunk on the grid.
    in.jobs.push_back(Collection{grid_, feeds_[0][0]});
    in.jobs.push_back(Collection{grid_, feeds_[1][0]});
    in.block = configs_[0].asr_block_w;
    in.bp_per_job = static_cast<double>(grid_.width() * grid_.height() * chunk_);
    in.stream_traffic = true;
    return in;
  }

 private:
  /// Feed of session s: sessions 0 and 1 share scene 0's pulses.
  [[nodiscard]] int feed_of(int s) const { return s < 2 ? 0 : 1; }

  void push(int s, Index chunk) {
    Span span("streaming.push");
    if (!sessions_[s].push(*feeds_[feed_of(s)][static_cast<std::size_t>(chunk)])) {
      throw std::runtime_error("stream_prf: push refused");
    }
  }

  obs::Registry registry_;
  geometry::ImageGrid grid_{0, 0, 1.0};
  Index chunk_ = 16;
  double period_s_ = 0.0;
  Index warm_chunks_ = 0;
  Index timed_chunks_ = 0;
  std::vector<std::vector<std::shared_ptr<const sim::PhaseHistory>>> feeds_;
  std::unique_ptr<service::ImageFormationService> service_;
  std::unique_ptr<streaming::SubApertureCache> cache_;
  std::vector<streaming::StreamConfig> configs_;
  std::vector<streaming::StreamSession> sessions_;
};

// --------------------------------------------------- surveillance_pipeline ---
//
// Repeat-pass frames with injected INS shifts and one transient target,
// pushed into the surveillance pipeline at a fixed frame rate: the paper's
// own chain, backprojection -> registration -> CCD -> CFAR.

class SurveillancePipelineWorkload final : public Workload {
 public:
  static constexpr double kFramePeriodS = 0.1;
  /// Passes after the reference; frames cycle through them.
  static constexpr int kPasses = 3;

  void setup(std::uint64_t seed, double seconds) override {
    scene_ = make_repeat_pass(seed, kPasses, collect_seconds);
    frames_ = static_cast<Index>(std::floor(seconds / kFramePeriodS));
    config_ = surveillance_config();
    config_.metrics = &registry_;
    pipeline_ = std::make_unique<pipeline::SurveillancePipeline>(scene_.grid,
                                                                 config_);
    // Warm-up: the first frame becomes the pipeline's reference.
    Span span("pipeline.warmup");
    pipeline_->push_pulses(*scene_.passes[0].history);
    auto ref = pipeline_->pop_result();
    if (!ref.has_value() || !ref->is_reference) {
      throw std::runtime_error("surveillance_pipeline: no reference frame");
    }
    reference_image_ = std::move(ref->image);
  }

  Phase run(double) override {
    Phase ph;
    ph.limit_s = kFramePeriodS;  // a frame must be out before the next one
    const double bp = scene_.passes[0].backprojections();
    std::vector<Clock::time_point> scheduled(static_cast<std::size_t>(frames_) + 1);
    std::mutex mutex;
    std::vector<std::string> errors;
    Clock::time_point last_done{};
    std::uint64_t received = 0;
    std::uint64_t missed = 0;
    std::string first_miss;

    std::thread observer([&] {
      for (;;) {
        std::optional<pipeline::FrameResult> frame;
        {
          Span span("pipeline.pop_result");
          frame = pipeline_->pop_result();
        }
        if (!frame.has_value()) return;
        const auto done = Clock::now();
        std::lock_guard<std::mutex> lock(mutex);
        ++received;
        last_done = done;
        const auto f = static_cast<std::size_t>(frame->frame);
        if (f == 0 || f >= scheduled.size()) {
          errors.push_back("surveillance_pipeline: unexpected frame " +
                           std::to_string(f));
          continue;
        }
        record_attempt(ph, seconds_between(scheduled[f], done), bp);
        Index nearest = scene_.grid.width();
        for (const auto& d : frame->cfar.detections) {
          nearest = std::min(nearest, std::max(std::abs(d.x - scene_.target_x),
                                               std::abs(d.y - scene_.target_y)));
        }
        // The change map resolves a change only to within the CCD window.
        if (nearest > config_.ccd.window / 2 && missed++ == 0) {
          char buf[256];
          std::snprintf(buf, sizeof(buf),
                        "frame %zu: %zu detections among %lld candidates, "
                        "nearest %lld px from the target at (%lld, %lld); "
                        "fitted translation (%.3f, %.3f) px",
                        f, frame->cfar.detections.size(),
                        static_cast<long long>(frame->cfar.candidates),
                        static_cast<long long>(nearest),
                        static_cast<long long>(scene_.target_x),
                        static_cast<long long>(scene_.target_y),
                        frame->alignment.tx, frame->alignment.ty);
          first_miss = buf;
        }
      }
    });

    const auto t0 = Clock::now();
    for (Index f = 1; f <= frames_; ++f) {
      sim::PhaseHistory batch = *scene_.passes[1 + (f - 1) % kPasses].history;
      const auto when = at(t0, kFramePeriodS * static_cast<double>(f - 1));
      {
        std::lock_guard<std::mutex> lock(mutex);
        scheduled[static_cast<std::size_t>(f)] = when;
      }
      sleep_until(when);
      ph.gen_lag_s.push_back(seconds_between(when, Clock::now()));
      ++ph.attempted;
      Span span("pipeline.push_pulses", static_cast<std::uint64_t>(f));
      if (!pipeline_->push_pulses(std::move(batch))) break;
    }
    pipeline_->close_input();
    observer.join();
    ph.failed = ph.attempted - received;
    ph.wall_s = seconds_between(t0, std::max(t0, last_done));
    ph.errors.insert(ph.errors.end(), errors.begin(), errors.end());
    if (missed > 0) {
      ph.errors.push_back("surveillance_pipeline: CFAR missed the transient "
                          "target in " + std::to_string(missed) + " of " +
                          std::to_string(received) + " frames; first " +
                          first_miss);
    }
    return ph;
  }

  void check(Phase& ph) override {
    // The reference frame is the unregistered backprojection of pass 0.
    const Collection& c = scene_.passes[0];
    ph.check_snr(snr_db(reference_image_, reference_image(*c.history, c.grid)),
                 predicted_floor_db(*c.history, c.grid,
                                    config_.backprojection.asr_block_w),
                 "surveillance_pipeline reference frame");
  }

  [[nodiscard]] LadderInputs ladder_inputs() const override {
    LadderInputs in;
    in.jobs = {scene_.passes[1]};
    in.block = config_.backprojection.asr_block_w;
    in.bp_per_job = scene_.passes[1].backprojections();
    in.pipeline_reference = scene_.passes[0];
    in.pipeline_current = scene_.passes[1];
    return in;
  }

 private:
  obs::Registry registry_;
  RepeatPass scene_;
  Index frames_ = 0;
  pipeline::PipelineConfig config_;
  std::unique_ptr<pipeline::SurveillancePipeline> pipeline_;
  Grid2D<CFloat> reference_image_;
};

}  // namespace

pipeline::PipelineConfig surveillance_config() {
  pipeline::PipelineConfig config;
  config.accumulation_factor = 0;  // repeat-pass: one batch per frame
  return config;
}

RepeatPass make_repeat_pass(std::uint64_t seed, int passes,
                            std::vector<double>& collect_seconds) {
  constexpr Index kPixels = 256;
  constexpr Index kPulses = 256;
  Rng rng(seed);
  RepeatPass out;
  out.grid = geometry::ImageGrid(kPixels, kPixels, 0.5);
  sim::ReflectorScene scene = sim::make_clutter_field(out.grid, 8, 1.0, rng);
  out.target_x = kPixels / 4 + static_cast<Index>(rng.below(kPixels / 2));
  out.target_y = kPixels / 4 + static_cast<Index>(rng.below(kPixels / 2));
  sim::Reflector transient;
  transient.position = out.grid.position(out.target_x, out.target_y);
  transient.amplitude = 8.0;
  transient.appear_s = 1.0;  // absent from the reference pass only
  scene.add(transient);

  geometry::OrbitParams orbit = standard_orbit(side_on_aspect(rng));
  orbit.angular_rate_rad_s = 0.066;  // resolves 0.5 m pixels in 256 pulses
  for (int pass = 0; pass <= passes; ++pass) {
    geometry::TrajectoryErrorModel errors;
    errors.perturbation_sigma_m = 0.02;
    if (pass > 0) {  // INS drift between passes
      errors.recorded_bias = {rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                              0.0};
    }
    out.passes.push_back(collect(out.grid, scene, orbit, errors, kPulses,
                                 2.0 * pass, rng, collect_seconds));
  }
  return out;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "frame_closed") return std::make_unique<FrameClosed>();
  if (name == "tenant_open") return std::make_unique<TenantOpen>();
  if (name == "stream_prf") return std::make_unique<StreamPrf>();
  if (name == "surveillance_pipeline") {
    return std::make_unique<SurveillancePipelineWorkload>();
  }
  return nullptr;
}

}  // namespace perfbench
