// Streaming sliding-aperture tests: parity with the service (chunk partials
// and re-anchors byte-identical to service jobs on its scalar and SIMD
// backends, steal on/off; > 70 dB drift bound between re-anchors), the
// O(delta) vs O(full) operation-count acceptance bound, re-anchor cadence,
// sub-aperture cache hit/eviction/collision behaviour (samples included),
// cancel and deadline expiry mid-update, the queued-cancel abandonment
// path, session teardown, and the streaming trace round trip + replay.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/snr.h"
#include "geometry/wavefront.h"
#include "service/trace.h"
#include "streaming/streaming.h"
#include "streaming/subaperture_cache.h"
#include "streaming/trace_replay.h"
#include "test_helpers.h"

namespace sarbp::streaming {
namespace {

using namespace std::chrono_literals;
using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using sarbp::testing::make_scenario;

constexpr auto kWait = 120s;

/// Copies pulses [p0, p1) of `h` into a standalone history.
sim::PhaseHistory slice(const sim::PhaseHistory& h, Index p0, Index p1) {
  sim::PhaseHistory out(p1 - p0, h.samples_per_pulse(), h.bin_spacing(),
                        h.wavenumber());
  for (Index p = p0; p < p1; ++p) {
    const auto src = h.pulse(p);
    std::copy(src.begin(), src.end(), out.pulse(p - p0).begin());
    out.meta(p - p0) = h.meta(p);
  }
  return out;
}

void expect_bit_identical(const Grid2D<CFloat>& a, const Grid2D<CFloat>& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  for (Index y = 0; y < a.height(); ++y) {
    const auto ra = a.row(y);
    const auto rb = b.row(y);
    for (Index x = 0; x < a.width(); ++x) {
      const auto ax = static_cast<std::size_t>(x);
      ASSERT_EQ(ra[ax].real(), rb[ax].real()) << "at (" << x << "," << y << ")";
      ASSERT_EQ(ra[ax].imag(), rb[ax].imag()) << "at (" << x << "," << y << ")";
    }
  }
}

// --- incremental vs from-scratch parity ----------------------------------

/// `pulses` formed as a service job on `srv` over `config`'s geometry.
Grid2D<CFloat> service_image(service::ImageFormationService& srv,
                             const StreamConfig& config,
                             const sim::PhaseHistory& pulses) {
  service::ImageFormationRequest req;
  req.grid = config.grid;
  req.region = config.region;
  req.pulses = std::make_shared<const sim::PhaseHistory>(pulses);
  req.asr_block_w = config.asr_block_w;
  req.asr_block_h = config.asr_block_h;
  auto job = srv.submit(std::move(req));
  EXPECT_TRUE(job.admitted());
  if (!job.admitted()) return Grid2D<CFloat>(0, 0);
  const service::JobResult& result = job.handle->wait();
  EXPECT_EQ(result.state, service::JobState::kDone) << result.error;
  return result.image;
}

/// After every update:
///  - the chunk's partial (read back from the session's cache) equals a
///    service job over that chunk byte for byte;
///  - a re-anchored snapshot equals a service job over window_history()
///    byte for byte, and on the default SIMD backend reform_window() too
///    (the scalar backend matches reform_window at > 70 dB);
///  - an incremental snapshot tracks reform_window() within the drift
///    bound.
void run_parity(exec::BackendSpec::Kind backend, bool steal) {
  ScenarioConfig cfg;
  cfg.image = 48;
  cfg.pulses = 48;
  cfg.seed = 11;
  // The look direction crosses the diagonal near pulse 27, so chunk 4 and
  // the second anchor's window sweep an x-inner run and then a y-inner run
  // into one block: the SIMD backend's per-run workspace flush is exercised
  // on a tile that already holds pulses.
  cfg.start_angle_rad = 0.75 * std::numbers::pi - 0.00108;
  const SmallScenario s = make_scenario(cfg);
  const auto order = [&](Index p) {
    return geometry::choose_loop_order(s.history.meta(p).position,
                                       s.grid.centre());
  };
  ASSERT_EQ(order(24), geometry::LoopOrder::kXInner);
  ASSERT_EQ(order(29), geometry::LoopOrder::kYInner);

  obs::Registry reg;
  service::ServiceConfig sc;
  sc.workers = 2;
  sc.steal = steal;
  sc.metrics = &reg;
  sc.backends.assign(1, exec::BackendSpec{});
  sc.backends[0].kind = backend;
  service::ImageFormationService srv(sc);

  SubApertureCacheConfig cache_config;
  cache_config.metrics = &reg;
  SubApertureCache cache(cache_config);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 6;
  config.window_chunks = 4;
  config.reanchor_interval = 3;  // anchors land on updates 4 and 8
  config.cache = &cache;
  StreamSession session = open_stream(srv, config);

  const Region region{0, 0, cfg.image, cfg.image};
  const Index chunks = cfg.pulses / config.chunk_pulses;
  bool saw_anchor = false;
  bool saw_incremental = false;
  for (Index c = 0; c < chunks; ++c) {
    const sim::PhaseHistory chunk = slice(s.history, c * config.chunk_pulses,
                                          (c + 1) * config.chunk_pulses);
    ASSERT_TRUE(session.push(chunk));
    ASSERT_TRUE(session.wait_for_update(static_cast<std::uint64_t>(c) + 1,
                                        kWait));
    ASSERT_TRUE(session.wait_idle(kWait));
    const auto snap = session.latest();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->seq, static_cast<std::uint64_t>(c) + 1);

    const auto partial = cache.find(
        cache.make_key(config.grid, region, config.asr_block_w,
                       config.asr_block_h, chunk),
        chunk);
    ASSERT_NE(partial, nullptr) << "update " << snap->seq;
    Grid2D<CFloat> partial_image(cfg.image, cfg.image);
    partial->accumulate_into(partial_image, region);
    expect_bit_identical(partial_image, service_image(srv, config, chunk));

    const sim::PhaseHistory window = session.window_history();
    EXPECT_EQ(window.num_pulses(), snap->window_pulses);
    const Grid2D<CFloat> reference = reform_window(config, window);
    if (snap->reanchored) {
      saw_anchor = true;
      expect_bit_identical(snap->image, service_image(srv, config, window));
      if (backend == exec::BackendSpec::Kind::kHostSimd) {
        expect_bit_identical(snap->image, reference);
      } else {
        EXPECT_GT(snr_db(snap->image, reference), 70.0)
            << "scalar anchor diverged at update " << snap->seq;
      }
    } else {
      saw_incremental = true;
      EXPECT_GT(snr_db(snap->image, reference), 70.0)
          << "drift bound violated at update " << snap->seq;
    }
  }
  EXPECT_TRUE(saw_anchor);
  EXPECT_TRUE(saw_incremental);
  EXPECT_EQ(session.stats().updates_completed,
            static_cast<std::uint64_t>(chunks));
  EXPECT_EQ(session.stats().cache_hits, 0u);
  if constexpr (obs::kEnabled) {
    const std::string name =
        backend == exec::BackendSpec::Kind::kHostScalar
            ? std::string("backend.scalar.sweeps")
            : std::string("backend.simd-") +
                  bp::simd_isa_name(bp::asr_resolve_isa(bp::SimdIsa::kAuto)) +
                  ".sweeps";
    EXPECT_GE(reg.counter(name).value(), 1) << name;
  }
  session.close();
}

using Kind = exec::BackendSpec::Kind;
TEST(StreamingParity, ScalarNoSteal) { run_parity(Kind::kHostScalar, false); }
TEST(StreamingParity, ScalarSteal) { run_parity(Kind::kHostScalar, true); }
TEST(StreamingParity, SimdNoSteal) { run_parity(Kind::kHostSimd, false); }
TEST(StreamingParity, SimdSteal) { run_parity(Kind::kHostSimd, true); }

// --- O(delta) vs O(full): the acceptance bound ---------------------------

TEST(StreamingOps, WindowedStreamBeatsFullReformsFiveFold) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 48;
  cfg.seed = 5;
  const SmallScenario s = make_scenario(cfg);

  obs::Registry reg;
  service::ServiceConfig sc;
  sc.workers = 2;
  sc.metrics = &reg;
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 2;  // delta << window
  config.window_chunks = 10;
  config.reanchor_interval = 12;
  StreamSession session = open_stream(srv, config);

  ASSERT_TRUE(session.push(s.history));
  const auto updates =
      static_cast<std::uint64_t>(cfg.pulses / config.chunk_pulses);
  ASSERT_TRUE(session.wait_for_update(updates, kWait));
  ASSERT_TRUE(session.wait_idle(kWait));

  const StreamStats stats = session.stats();
  EXPECT_EQ(stats.updates_completed, updates);
  EXPECT_EQ(stats.reanchors, 1u);  // update 13

  // What N from-scratch reforms of the same sliding windows would cost, in
  // the same (pixel, pulse) units the session counts.
  const auto pixels = static_cast<std::uint64_t>(cfg.image) *
                      static_cast<std::uint64_t>(cfg.image);
  std::uint64_t full_reform_ops = 0;
  for (std::uint64_t u = 1; u <= updates; ++u) {
    const std::uint64_t window_pulses =
        std::min<std::uint64_t>(u, static_cast<std::uint64_t>(
                                       config.window_chunks)) *
        static_cast<std::uint64_t>(config.chunk_pulses);
    full_reform_ops += pixels * window_pulses;
  }
  ASSERT_GT(stats.backprojections, 0u);
  EXPECT_GE(full_reform_ops, 5 * stats.backprojections)
      << "streaming spent " << stats.backprojections
      << " backprojections; N full reforms would spend " << full_reform_ops;
  // The obs counter is the same observable.
  EXPECT_EQ(reg.counter("streaming.backprojections").value(),
            stats.backprojections);
  EXPECT_EQ(reg.counter("streaming.reanchors").value(), stats.reanchors);
  session.close();
}

// --- re-anchor cadence ---------------------------------------------------

TEST(StreamingReanchor, CadenceFollowsConfiguredInterval) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 28;
  const SmallScenario s = make_scenario(cfg);

  service::ServiceConfig sc;
  sc.workers = 1;
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 4;
  config.window_chunks = 3;
  config.reanchor_interval = 2;  // updates 3 and 6 re-anchor
  StreamSession session = open_stream(srv, config);

  std::vector<bool> reanchored;
  for (Index c = 0; c < 7; ++c) {
    ASSERT_TRUE(session.push(slice(s.history, c * 4, (c + 1) * 4)));
    ASSERT_TRUE(session.wait_for_update(static_cast<std::uint64_t>(c) + 1,
                                        kWait));
    reanchored.push_back(session.latest()->reanchored);
  }
  const std::vector<bool> expected = {false, false, true, false,
                                      false, true,  false};
  EXPECT_EQ(reanchored, expected);
  EXPECT_EQ(session.stats().reanchors, 2u);
}

// --- sub-aperture cache --------------------------------------------------

TEST(SubApertureCache, SharedAcrossSessionsSkipsResweep) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 24;
  const SmallScenario s = make_scenario(cfg);

  obs::Registry reg;
  service::ServiceConfig sc;
  sc.workers = 2;
  sc.metrics = &reg;
  service::ImageFormationService srv(sc);

  SubApertureCacheConfig cache_config;
  cache_config.capacity = 16;
  cache_config.metrics = &reg;
  SubApertureCache cache(cache_config);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 4;
  config.window_chunks = 6;  // whole collection fits: no expiry
  config.reanchor_interval = 0;
  config.cache = &cache;

  StreamSession a = open_stream(srv, config);
  ASSERT_TRUE(a.push(s.history));
  ASSERT_TRUE(a.wait_for_update(6, kWait));
  ASSERT_TRUE(a.wait_idle(kWait));
  const StreamStats stats_a = a.stats();
  EXPECT_EQ(stats_a.cache_hits, 0u);
  ASSERT_GT(stats_a.backprojections, 0u);
  EXPECT_EQ(cache.size(), 6u);

  // Same scene, same geometry: every chunk partial comes from the cache,
  // and the image is the exact tile sum the first session committed.
  StreamSession b = open_stream(srv, config);
  ASSERT_TRUE(b.push(s.history));
  ASSERT_TRUE(b.wait_for_update(6, kWait));
  ASSERT_TRUE(b.wait_idle(kWait));
  const StreamStats stats_b = b.stats();
  EXPECT_EQ(stats_b.cache_hits, 6u);
  EXPECT_EQ(stats_b.backprojections, 0u);
  expect_bit_identical(b.latest()->image, a.latest()->image);

  EXPECT_EQ(reg.counter("streaming.cache.hits").value(), 6u);
  EXPECT_EQ(reg.counter("streaming.cache.inserts").value(), 6u);
}

TEST(SubApertureCache, EvictsLeastRecentlyUsed) {
  ScenarioConfig cfg;
  cfg.image = 24;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);
  const auto c1 =
      std::make_shared<const sim::PhaseHistory>(slice(s.history, 0, 4));
  const auto c2 =
      std::make_shared<const sim::PhaseHistory>(slice(s.history, 4, 8));
  const Region region{0, 0, cfg.image, cfg.image};

  obs::Registry reg;
  SubApertureCacheConfig config;
  config.capacity = 1;
  config.metrics = &reg;
  SubApertureCache cache(config);

  const auto k1 = cache.make_key(s.grid, region, 16, 16, *c1);
  const auto k2 = cache.make_key(s.grid, region, 16, 16, *c2);
  cache.insert(k1, c1, std::make_shared<bp::SoaTile>(cfg.image, cfg.image));
  EXPECT_NE(cache.find(k1, *c1), nullptr);

  cache.insert(k2, c2, std::make_shared<bp::SoaTile>(cfg.image, cfg.image));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(k1, *c1), nullptr);  // evicted
  EXPECT_NE(cache.find(k2, *c2), nullptr);
  EXPECT_EQ(reg.counter("streaming.cache.evictions").value(), 1u);
}

TEST(SubApertureCache, SignatureCollisionServedAsMiss) {
  ScenarioConfig cfg;
  cfg.image = 24;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);
  const auto c1 =
      std::make_shared<const sim::PhaseHistory>(slice(s.history, 0, 4));
  const auto c2 =
      std::make_shared<const sim::PhaseHistory>(slice(s.history, 4, 8));
  const Region region{0, 0, cfg.image, cfg.image};

  obs::Registry reg;
  SubApertureCacheConfig config;
  config.metrics = &reg;
  // Force every chunk onto one key: c2's lookup collides with c1's entry.
  config.signature_fn = [](const sim::PhaseHistory&) -> std::uint64_t {
    return 42;
  };
  SubApertureCache cache(config);

  const auto k1 = cache.make_key(s.grid, region, 16, 16, *c1);
  const auto k2 = cache.make_key(s.grid, region, 16, 16, *c2);
  EXPECT_EQ(k1.pulse_signature, k2.pulse_signature);

  cache.insert(k1, c1, std::make_shared<bp::SoaTile>(cfg.image, cfg.image));
  EXPECT_EQ(cache.find(k2, *c2), nullptr);  // a different chunk
  EXPECT_EQ(reg.counter("streaming.cache.collisions").value(), 1u);
  EXPECT_NE(cache.find(k1, *c1), nullptr);  // the real owner still hits
}

/// Same pulse geometry, different samples: the plan key matches (it hashes
/// geometry only), the partial does not, so the lookup must miss.
TEST(SubApertureCache, SampleMismatchServedAsMiss) {
  ScenarioConfig cfg;
  cfg.image = 24;
  cfg.pulses = 4;
  const SmallScenario s = make_scenario(cfg);
  const auto chunk = std::make_shared<const sim::PhaseHistory>(s.history);
  sim::PhaseHistory edited = s.history;
  edited.pulse(2)[5] += CFloat(1.0f, 0.0f);
  const Region region{0, 0, cfg.image, cfg.image};

  obs::Registry reg;
  SubApertureCacheConfig config;
  config.metrics = &reg;
  SubApertureCache cache(config);
  const auto key = cache.make_key(s.grid, region, 16, 16, *chunk);
  EXPECT_EQ(cache.make_key(s.grid, region, 16, 16, edited), key);

  cache.insert(key, chunk, std::make_shared<bp::SoaTile>(cfg.image, cfg.image));
  EXPECT_EQ(cache.find(key, edited), nullptr);
  EXPECT_EQ(reg.counter("streaming.cache.collisions").value(), 1u);
  EXPECT_NE(cache.find(key, sim::PhaseHistory(s.history)), nullptr);
}

/// Two sessions share a cache over identical trajectories, but B's samples
/// are doubled: B must sweep every chunk itself and form its own image.
TEST(SubApertureCache, SharedCacheServesOnlyTheSameSamples) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 24;
  const SmallScenario s = make_scenario(cfg);
  sim::PhaseHistory doubled = s.history;
  for (Index p = 0; p < doubled.num_pulses(); ++p) {
    for (CFloat& v : doubled.pulse(p)) v *= 2.0f;
  }

  service::ServiceConfig sc;
  sc.workers = 2;
  service::ImageFormationService srv(sc);
  SubApertureCache cache;

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 4;
  config.window_chunks = 6;
  config.reanchor_interval = 0;
  config.cache = &cache;

  StreamSession a = open_stream(srv, config);
  ASSERT_TRUE(a.push(s.history));
  ASSERT_TRUE(a.wait_for_update(6, kWait));
  ASSERT_TRUE(a.wait_idle(kWait));

  StreamSession b = open_stream(srv, config);
  ASSERT_TRUE(b.push(doubled));
  ASSERT_TRUE(b.wait_for_update(6, kWait));
  ASSERT_TRUE(b.wait_idle(kWait));
  EXPECT_EQ(b.stats().cache_hits, 0u);
  EXPECT_GT(snr_db(b.latest()->image, reform_window(config, b.window_history())),
            70.0);
}

// --- cancellation and deadlines mid-update -------------------------------

TEST(StreamingLifecycle, CancelMidUpdateMutatesNothing) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 16;
  const SmallScenario s = make_scenario(cfg);

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool entered = false;
  bool released = false;
  service::ServiceConfig sc;
  sc.workers = 2;
  // Hold every worker at its first checkpoint until the test releases it,
  // so cancel() provably lands while the update is mid-flight.
  sc.inter_block_hook = [&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    entered = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return released; });
  };
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 8;
  StreamSession session = open_stream(srv, config);

  ASSERT_TRUE(session.push(slice(s.history, 0, 8)));
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    ASSERT_TRUE(gate_cv.wait_for(lock, kWait, [&] { return entered; }));
  }
  session.cancel();
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    released = true;
    gate_cv.notify_all();
  }
  ASSERT_TRUE(session.wait_idle(kWait));

  StreamStats stats = session.stats();
  EXPECT_EQ(stats.updates_cancelled, 1u);
  EXPECT_EQ(stats.updates_completed, 0u);
  EXPECT_EQ(session.latest(), nullptr);
  EXPECT_EQ(session.window_history().num_pulses(), 0);

  // The session survives a cancelled update: the next chunk goes through.
  ASSERT_TRUE(session.push(slice(s.history, 8, 16)));
  ASSERT_TRUE(session.wait_for_update(1, kWait));
  EXPECT_EQ(session.stats().updates_completed, 1u);
}

TEST(StreamingLifecycle, DeadlineExpiryDropsUpdate) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);

  std::atomic<bool> slept{false};
  service::ServiceConfig sc;
  sc.workers = 1;
  sc.inter_block_hook = [&] {
    if (!slept.exchange(true)) {
      // Push the first checkpoint past the update deadline.
      // lint: allow(sleep-poll) -- forcing a deterministic deadline miss
      std::this_thread::sleep_for(150ms);
    }
  };
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 8;
  config.update_deadline = 50ms;
  StreamSession session = open_stream(srv, config);

  ASSERT_TRUE(session.push(s.history));
  ASSERT_TRUE(session.wait_idle(kWait));
  const StreamStats stats = session.stats();
  EXPECT_EQ(stats.updates_expired, 1u)
      << "completed=" << stats.updates_completed
      << " failed=" << stats.updates_failed
      << " cancelled=" << stats.updates_cancelled
      << " rejected=" << stats.updates_rejected;
  EXPECT_EQ(stats.updates_completed, 0u);
  EXPECT_EQ(session.latest(), nullptr);
}

TEST(StreamingLifecycle, CancelWhileQueuedAbandonsCleanly) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);

  service::ServiceConfig sc;
  sc.workers = 1;
  sc.start_paused = true;  // the update stays QUEUED until resume()
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 8;
  StreamSession session = open_stream(srv, config);

  ASSERT_TRUE(session.push(s.history));
  session.cancel();  // resolves the queued handle immediately
  srv.resume();
  // The dequeue-side abandonment must clear the in-flight slot even though
  // the update's factory never ran.
  ASSERT_TRUE(session.wait_idle(kWait));
  const StreamStats stats = session.stats();
  EXPECT_EQ(stats.updates_cancelled, 1u);
  EXPECT_EQ(stats.updates_completed, 0u);
}

TEST(StreamingLifecycle, CloseStopsIngestionButDrains) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 16;
  const SmallScenario s = make_scenario(cfg);

  service::ServiceConfig sc;
  sc.workers = 1;
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 8;
  StreamSession session = open_stream(srv, config);

  ASSERT_TRUE(session.push(slice(s.history, 0, 8)));
  session.close();
  EXPECT_FALSE(session.push(slice(s.history, 8, 16)));
  ASSERT_TRUE(session.wait_idle(kWait));
  EXPECT_EQ(session.stats().updates_completed, 1u);
}

/// A closed, idle session is freed with everything it holds: after the
/// service drains and the cache is cleared, nothing keeps a chunk partial.
TEST(StreamingLifecycle, ClosedSessionReleasesItsPartials) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);

  service::ServiceConfig sc;
  sc.workers = 2;
  service::ImageFormationService srv(sc);
  SubApertureCache cache;

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 4;
  config.window_chunks = 2;
  config.cache = &cache;

  std::weak_ptr<const bp::SoaTile> partial;
  {
    StreamSession session = open_stream(srv, config);
    ASSERT_TRUE(session.push(s.history));
    ASSERT_TRUE(session.wait_for_update(2, kWait));
    const sim::PhaseHistory first = slice(s.history, 0, 4);
    partial = cache.find(cache.make_key(config.grid,
                                        Region{0, 0, cfg.image, cfg.image},
                                        config.asr_block_w,
                                        config.asr_block_h, first),
                         first);
    ASSERT_FALSE(partial.expired());
    session.close();
    ASSERT_TRUE(session.wait_idle(kWait));
  }
  srv.drain();  // joins the workers: no update group is left alive
  cache.clear();
  EXPECT_TRUE(partial.expired());
}

TEST(StreamingLifecycle, InconsistentSamplingRejected) {
  ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 8;
  const SmallScenario s = make_scenario(cfg);

  service::ServiceConfig sc;
  sc.workers = 1;
  service::ImageFormationService srv(sc);

  StreamConfig config;
  config.grid = s.grid;
  config.asr_block_w = config.asr_block_h = 16;
  config.chunk_pulses = 8;
  StreamSession session = open_stream(srv, config);

  ASSERT_TRUE(session.push(s.history));
  const sim::PhaseHistory wrong(4, s.history.samples_per_pulse() + 1,
                                s.history.bin_spacing(),
                                s.history.wavenumber());
  EXPECT_FALSE(session.push(wrong));
  EXPECT_FALSE(session.push(sim::PhaseHistory{}));
}

// --- streaming trace extension -------------------------------------------

TEST(StreamingTrace, RoundTripsThroughJson) {
  service::Trace trace =
      service::make_streaming_trace(2, 3, 32, 8, 16, /*chunk=*/8, /*window=*/2,
                           /*reanchor=*/2);
  service::TraceEntry plain;
  plain.image = 32;
  plain.pulses = 8;
  plain.block = 16;
  plain.tenant = "batch";
  trace.requests.push_back(plain);

  const service::Trace back = service::parse_trace_json(to_json(trace));
  ASSERT_EQ(back.requests.size(), trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const auto& a = trace.requests[i];
    const auto& b = back.requests[i];
    EXPECT_EQ(a.image, b.image);
    EXPECT_EQ(a.pulses, b.pulses);
    EXPECT_EQ(a.block, b.block);
    EXPECT_EQ(a.scene, b.scene);
    EXPECT_EQ(a.tenant, b.tenant);
    EXPECT_EQ(a.stream, b.stream);
    EXPECT_EQ(a.chunk, b.chunk);
    EXPECT_EQ(a.window, b.window);
    EXPECT_EQ(a.reanchor, b.reanchor);
  }
}

TEST(StreamingTrace, ReplayDrivesSessions) {
  const service::Trace trace =
      service::make_streaming_trace(2, 3, 32, 8, 16, /*chunk=*/8, /*window=*/2,
                           /*reanchor=*/2);

  service::ServiceConfig sc;
  sc.workers = 2;
  service::ImageFormationService srv(sc);
  SubApertureCache cache;
  TraceStreamReplayer replayer(srv, &cache);
  const service::ReplayStats stats =
      service::replay_trace(trace, srv, &replayer);

  EXPECT_EQ(stats.streams, 2u);
  EXPECT_EQ(stats.stream_pushes, 6u);
  EXPECT_EQ(stats.stream_updates, 6u);
  EXPECT_EQ(stats.stream_reanchors, 2u);  // update 3 of each stream
  EXPECT_EQ(stats.stream_dropped, 0u);
  EXPECT_EQ(stats.submitted, 0u);
}

TEST(StreamingTrace, ReplayWithoutHandlerThrows) {
  const service::Trace trace =
      service::make_streaming_trace(1, 1, 32, 8, 16, 8, 2, 0);
  service::ServiceConfig sc;
  sc.workers = 1;
  service::ImageFormationService srv(sc);
  EXPECT_THROW(service::replay_trace(trace, srv), PreconditionError);
}

}  // namespace
}  // namespace sarbp::streaming
