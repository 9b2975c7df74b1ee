// Sharded formation-service tests: routing parity against the single-node
// path (byte-identical for single-shard and grid-split jobs, SNR-bounded
// for the pulse-scatter reduction), rank-fault injection resolving jobs as
// kFailed instead of hanging, and a multi-tenant sharded replay smoke.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/snr.h"
#include "service/service.h"
#include "service/trace.h"
#include "test_helpers.h"

namespace sarbp::service {
namespace {

using namespace std::chrono_literals;
using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using sarbp::testing::make_scenario;

struct Fixture {
  SmallScenario scenario;
  std::shared_ptr<const sim::PhaseHistory> pulses;
};

Fixture make_fixture(Index image, Index pulses, std::uint64_t seed = 11) {
  ScenarioConfig cfg;
  cfg.image = image;
  cfg.pulses = pulses;
  cfg.seed = seed;
  SmallScenario s = make_scenario(cfg);
  auto history = std::make_shared<const sim::PhaseHistory>(s.history);
  return {std::move(s), std::move(history)};
}

ImageFormationRequest make_request(const Fixture& f, Index block = 16) {
  ImageFormationRequest req;
  req.grid = f.scenario.grid;
  req.pulses = f.pulses;
  req.asr_block_w = req.asr_block_h = block;
  return req;
}

/// Forms one image through a service built from `sc` and returns it.
Grid2D<CFloat> form_once(ServiceConfig sc, const Fixture& f,
                         Index block = 16) {
  ImageFormationService service(std::move(sc));
  auto outcome = service.submit(make_request(f, block));
  EXPECT_TRUE(outcome.admitted());
  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kDone) << result.error;
  return result.image;
}

/// Forms the same request twice through one service: a plan-cache miss,
/// whose replay fills the plan's tables as it sweeps, then a hit on the
/// published plan. Returns {miss image, hit image}.
std::pair<Grid2D<CFloat>, Grid2D<CFloat>> form_miss_then_hit(
    ServiceConfig sc, const Fixture& f) {
  ImageFormationService service(std::move(sc));
  Grid2D<CFloat> images[2];
  for (int i = 0; i < 2; ++i) {
    auto outcome = service.submit(make_request(f));
    EXPECT_TRUE(outcome.admitted());
    const JobResult& result = outcome.handle->wait();
    EXPECT_EQ(result.state, JobState::kDone) << result.error;
    EXPECT_EQ(result.plan_cache_hit, i == 1);
    images[i] = result.image;
  }
  return {std::move(images[0]), std::move(images[1])};
}

/// The backend lists every local-vs-sharded identity test runs under: the
/// default (host SIMD) and the byte-identity scalar anchor.
std::vector<std::vector<exec::BackendSpec>> backend_lists() {
  return {ServiceConfig{}.backends, {exec::BackendSpec{}}};
}

const char* list_name(const std::vector<exec::BackendSpec>& backends) {
  return backends.front().kind == exec::BackendSpec::Kind::kHostSimd
             ? "simd"
             : "scalar";
}

TEST(ClusterService, SingleShardJobsAreByteIdenticalToLocal) {
  // A job under the small-job threshold routes whole to one shard, whose
  // worker builds the same full-region plan the local path would and
  // sweeps it with the same backends; the gathered tile must match the
  // single-node image byte for byte.
  const Fixture f = make_fixture(32, 12);

  for (const auto& backends : backend_lists()) {
    SCOPED_TRACE(list_name(backends));
    ServiceConfig local;
    local.workers = 1;
    local.backends = backends;
    const Grid2D<CFloat> reference = form_once(local, f);

    ServiceConfig sharded;
    sharded.shards = 2;  // 32*32 = 1024 <= shard_small_pixels: single-shard
    sharded.backends = backends;
    const auto [miss, hit] = form_miss_then_hit(sharded, f);

    EXPECT_TRUE(miss == reference);
    EXPECT_TRUE(hit == reference);
  }
}

TEST(ClusterService, GridSplitIsBitIdenticalToLocal) {
  // Band cuts land on ASR block boundaries anchored at the region origin,
  // so each shard computes exactly the blocks the full plan would, and the
  // gather copies disjoint sub-rectangles: no floating-point reduction at
  // all, hence exact equality.
  const Fixture f = make_fixture(48, 12);

  for (const auto& backends : backend_lists()) {
    SCOPED_TRACE(list_name(backends));
    ServiceConfig local;
    local.workers = 1;
    local.backends = backends;
    const Grid2D<CFloat> reference = form_once(local, f);

    ServiceConfig sharded;
    sharded.shards = 2;
    sharded.shard_small_pixels = 16;  // force the splitter for this job
    sharded.shard_strategy = ShardStrategy::kGridSplit;
    sharded.backends = backends;
    const auto [miss, hit] = form_miss_then_hit(sharded, f);

    EXPECT_TRUE(miss == reference);
    EXPECT_TRUE(hit == reference);
  }
}

TEST(ClusterService, ShardRanksSweepWithConfiguredBackends) {
  // The ranks replay with the service's BackendSet, not a private default:
  // a simulated-coprocessor backend's sweep counter rises on a grid-split
  // job.
  const Fixture f = make_fixture(48, 12);
  exec::BackendSpec knc;
  knc.kind = exec::BackendSpec::Kind::kOffloadSim;
  knc.name = "knc";

  obs::Registry reg;
  ServiceConfig sharded;
  sharded.shards = 2;
  sharded.shard_small_pixels = 16;
  sharded.shard_strategy = ShardStrategy::kGridSplit;
  sharded.backends = {knc};
  sharded.metrics = &reg;
  form_once(sharded, f);
  if constexpr (obs::kEnabled) {
    EXPECT_GE(reg.counter("backend.knc.sweeps").value(), 1);
    EXPECT_GE(reg.counter("shard.jobs.grid_split").value(), 1);
  }
}

TEST(ClusterService, PulseScatterMatchesLocalWithinReductionTolerance) {
  // Pulse scatter sums partial tiles in shard-index order — a different
  // float reduction order than the single-node pulse loop, so the images
  // agree to reduction precision (documented in DESIGN.md), not bytes.
  const Fixture f = make_fixture(48, 12);

  for (const auto& backends : backend_lists()) {
    SCOPED_TRACE(list_name(backends));
    ServiceConfig local;
    local.workers = 1;
    local.backends = backends;
    const Grid2D<CFloat> reference = form_once(local, f);

    ServiceConfig sharded;
    sharded.shards = 2;
    sharded.shard_small_pixels = 16;
    sharded.shard_strategy = ShardStrategy::kPulseScatter;
    sharded.backends = backends;
    const Grid2D<CFloat> image = form_once(sharded, f);

    EXPECT_GT(snr_db(image, reference), 70.0);
  }
}

TEST(ClusterService, ShardedAutoStrategyOnDegenerateRegions) {
  // Awkward and degenerate regions at several shard counts: 51x37 leaves
  // remainder bands (and more shards than 16-px block rows at 7 shards);
  // 1xN and Nx1 cannot be band-split into two block-aligned pieces, so
  // kAuto must fall back (pulse scatter or single). Every case must still
  // produce a faithful image rather than rejecting or crashing.
  const Fixture f = make_fixture(64, 12);
  for (const auto& shape :
       {std::pair<Index, Index>{51, 37}, std::pair<Index, Index>{1, 48},
        std::pair<Index, Index>{48, 1}}) {
    ImageFormationRequest base = make_request(f);
    base.region = Region{0, 0, shape.first, shape.second};

    ServiceConfig local;
    local.workers = 1;
    ImageFormationService reference_service(local);
    auto ref_outcome = reference_service.submit(ImageFormationRequest(base));
    ASSERT_TRUE(ref_outcome.admitted());
    const JobResult& reference = ref_outcome.handle->wait();
    ASSERT_EQ(reference.state, JobState::kDone) << reference.error;

    for (const int shards : {2, 4, 7}) {
      ServiceConfig sharded;
      sharded.shards = shards;
      sharded.shard_small_pixels = 4;
      ImageFormationService service(sharded);
      auto outcome = service.submit(ImageFormationRequest(base));
      ASSERT_TRUE(outcome.admitted());
      const JobResult& result = outcome.handle->wait();
      ASSERT_EQ(result.state, JobState::kDone) << result.error;
      EXPECT_GT(snr_db(result.image, reference.image), 70.0)
          << shape.first << "x" << shape.second << " on " << shards
          << " shards";
    }
  }
}

TEST(ClusterService, ThrowingShardFailsJobInsteadOfHanging) {
  // The regression the abort protocol exists for: a rank that dies while
  // holding a dispatched part must fail the job promptly — before the fix,
  // the gather thread waited forever on a reply that could never come.
  const Fixture f = make_fixture(32, 12);

  ServiceConfig sc;
  sc.shards = 2;
  sc.shard_fault_hook = [](int /*shard*/, std::uint64_t seq) {
    if (seq == 1) throw std::runtime_error("injected shard fault");
  };
  ImageFormationService service(sc);

  auto outcome = service.submit(make_request(f));
  ASSERT_TRUE(outcome.admitted());
  ASSERT_TRUE(outcome.handle->wait_for(10s))
      << "job never resolved after the shard died";
  const JobResult& result = outcome.handle->result();
  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_NE(result.error.find("shard cluster aborted"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("injected shard fault"), std::string::npos)
      << result.error;
  service.drain();  // must return despite the dead cluster
}

TEST(ClusterService, ShardedMultiTenantReplaySmoke) {
  // End-to-end: the repeated-scene multi-tenant trace through a sharded
  // service, with the threshold forcing every job through the splitter.
  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 1;
  sc.shards = 2;
  sc.shard_small_pixels = 16;
  sc.metrics = &reg;
  ImageFormationService service(sc);

  const Trace trace = make_repeated_scene_trace(2, 2, 48, 12, 16);
  const ReplayStats stats = replay_trace(trace, service);
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.done, 4u);
  if (obs::kEnabled) {
    EXPECT_EQ(reg.counter("tenant.tenant-1.submitted").value(), 2u);
    EXPECT_EQ(reg.counter("tenant.tenant-2.submitted").value(), 2u);
    EXPECT_EQ(reg.counter("shard.parts.dispatched").value(), 8u);
  }
}

}  // namespace
}  // namespace sarbp::service
