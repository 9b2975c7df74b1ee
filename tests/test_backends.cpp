// Tile compute backends and the §5.3 block router: scalar-backend sweeps
// are byte-identical to the plan executor, the SIMD backend agrees at SNR
// level, the BackendSet's split moves from capability priors to observed
// rates, partition() boundaries are sound, plan replays on a
// {xeon, knc, knc} set converge to the §5.3 effective-rate split and
// reproduce the Table 3 ordering, and the service routed
// end-to-end through ServiceConfig::backends is byte-identical to
// service::execute_plan for scalar-only sets, runs the host SIMD backend
// by default, and rejects an empty backend list.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backprojection/kernel.h"
#include "common/check.h"
#include "common/snr.h"
#include "exec/executor.h"
#include "exec/tile_backend.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "test_helpers.h"

namespace sarbp::service {
namespace {

using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using sarbp::testing::make_scenario;

struct PlanFixture {
  SmallScenario scenario;
  std::shared_ptr<const sim::PhaseHistory> pulses;
  Region region;
  std::shared_ptr<const service::FormationPlan> plan;
};

PlanFixture make_plan_fixture(Index image = 48, Index pulses = 16,
                              Index block = 16) {
  ScenarioConfig cfg;
  cfg.image = image;
  cfg.pulses = pulses;
  SmallScenario s = make_scenario(cfg);
  const Region region{0, 0, image, image};
  auto plan = service::build_formation_plan(s.grid, region, block, block,
                                            s.history);
  auto history = std::make_shared<const sim::PhaseHistory>(s.history);
  return {std::move(s), std::move(history), region, std::move(plan)};
}

exec::PlanView view_of(const PlanFixture& f) {
  exec::PlanView view;
  view.blocks = f.plan->blocks.data();
  view.num_blocks = static_cast<Index>(f.plan->blocks.size());
  view.pulse_order = f.plan->pulse_order.data();
  view.num_pulses = f.plan->num_pulses();
  view.tables = f.plan->tables.data();
  view.region_x0 = f.region.x0;
  view.region_y0 = f.region.y0;
  return view;
}

bool tiles_equal(const bp::SoaTile& a, const bp::SoaTile& b) {
  const auto bytes = sizeof(float) * static_cast<std::size_t>(a.width());
  for (Index y = 0; y < a.height(); ++y) {
    if (std::memcmp(a.row_re(y), b.row_re(y), bytes) != 0) return false;
    if (std::memcmp(a.row_im(y), b.row_im(y), bytes) != 0) return false;
  }
  return true;
}

Grid2D<CFloat> grid_of(const bp::SoaTile& tile) {
  Grid2D<CFloat> out(tile.width(), tile.height());
  for (Index y = 0; y < tile.height(); ++y) {
    for (Index x = 0; x < tile.width(); ++x) {
      out.at(x, y) = CFloat{tile.row_re(y)[x], tile.row_im(y)[x]};
    }
  }
  return out;
}

// --- backend sweeps vs the plan executor ---------------------------------

TEST(TileBackend, ScalarSweepMatchesExecutePlanExactly) {
  const PlanFixture f = make_plan_fixture();
  bp::SoaTile expected(f.region.width, f.region.height);
  ASSERT_TRUE(service::execute_plan(*f.plan, *f.pulses, expected, nullptr));

  exec::BackendSpec spec;  // kHostScalar
  const auto backend = exec::make_backend(spec, 0.5, nullptr);
  const exec::PlanView view = view_of(f);
  bp::SoaTile routed(f.region.width, f.region.height);
  for (Index b = 0; b < view.num_blocks; ++b) {
    backend->sweep_block(view, *f.pulses, b, 0, view.num_pulses, routed);
  }
  EXPECT_TRUE(tiles_equal(expected, routed));
}

TEST(TileBackend, SimdSweepMatchesScalarAtSnrLevel) {
  if (!bp::asr_simd_available()) GTEST_SKIP() << "no vector ISA usable";
  const PlanFixture f = make_plan_fixture();
  bp::SoaTile scalar(f.region.width, f.region.height);
  ASSERT_TRUE(service::execute_plan(*f.plan, *f.pulses, scalar, nullptr));

  exec::BackendSpec spec;
  spec.kind = exec::BackendSpec::Kind::kHostSimd;
  const auto backend = exec::make_backend(spec, 0.5, nullptr);
  const exec::PlanView view = view_of(f);
  bp::SoaTile simd(f.region.width, f.region.height);
  for (Index b = 0; b < view.num_blocks; ++b) {
    backend->sweep_block(view, *f.pulses, b, 0, view.num_pulses, simd);
  }
  EXPECT_GT(snr_db(grid_of(simd), grid_of(scalar)), 70.0);
}

TEST(TileBackend, OffloadSimRescalesMeasuredTime) {
  exec::BackendSpec spec;
  spec.kind = exec::BackendSpec::Kind::kOffloadSim;  // KNC vs dual-Xeon host
  const auto backend = exec::make_backend(spec, 0.5, nullptr);
  // KNC effective rate (1920 * 0.28) ~ 1.94x the dual Xeon (660 * 0.42):
  // a second of measured host arithmetic simulates to ~0.52 s.
  const double simulated = backend->simulated_seconds(1.0);
  EXPECT_NEAR(simulated, (660.0 * 0.42) / (1920.0 * 0.28), 1e-9);
  // The capability prior carries the same ratio (host scalar = 1).
  EXPECT_NEAR(backend->rate_prior(), (1920.0 * 0.28) / (660.0 * 0.42), 1e-9);
}

// --- BackendSet split / partition ----------------------------------------

TEST(BackendSet, SplitUsesPriorsUntilEveryBackendObserved) {
  std::vector<exec::BackendSpec> specs(2);
  specs[0].kind = exec::BackendSpec::Kind::kHostScalar;
  specs[1].kind = exec::BackendSpec::Kind::kOffloadSim;
  specs[1].name = "knc";
  obs::Registry reg;
  exec::BackendSet set(specs, 0.5, &reg);

  // No observations yet: split proportional to capability priors.
  const double p0 = set.backend(0).rate_prior();
  const double p1 = set.backend(1).rate_prior();
  auto split = set.split();
  ASSERT_EQ(split.size(), 2u);
  EXPECT_NEAR(split[0], p0 / (p0 + p1), 1e-12);
  EXPECT_NEAR(split[1], p1 / (p0 + p1), 1e-12);

  // One backend observed, the other not: still priors (observing only the
  // fast backend must not starve the unobserved one).
  set.backend(0).record(/*backprojections=*/1e6, /*measured_seconds=*/1.0);
  split = set.split();
  EXPECT_NEAR(split[0], p0 / (p0 + p1), 1e-12);

  // Both observed: split follows the observed rates. Make the "slow"
  // backend 3x faster than the other in simulated terms.
  set.backend(1).record(3e6, set.backend(1).simulated_seconds(1.0));
  split = set.split();
  const double r0 = set.backend(0).observed_rate();
  const double r1 = set.backend(1).observed_rate();
  EXPECT_GT(r1, r0);
  EXPECT_NEAR(split[0], r0 / (r0 + r1), 1e-12);
  EXPECT_NEAR(split[1], r1 / (r0 + r1), 1e-12);
}

TEST(BackendSet, PartitionBoundariesAreMonotoneAndComplete) {
  std::vector<exec::BackendSpec> specs(3);
  specs[0].kind = exec::BackendSpec::Kind::kHostScalar;
  specs[0].name = "a";
  specs[1].kind = exec::BackendSpec::Kind::kHostScalar;
  specs[1].name = "b";
  specs[2].kind = exec::BackendSpec::Kind::kOffloadSim;
  specs[2].name = "c";
  exec::BackendSet set(specs, 0.5, nullptr);

  for (const Index n : {0, 1, 2, 3, 7, 64, 1001}) {
    const auto bounds = set.partition(n);
    ASSERT_EQ(bounds.size(), 4u);
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), n);
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LE(bounds[i - 1], bounds[i]) << "n=" << n << " i=" << i;
    }
  }
}

// --- the §5.3 split and Table 3 on the engine ----------------------------

exec::ExecOptions one_worker(obs::Registry& metrics) {
  exec::ExecOptions options;
  options.workers = 1;
  options.metrics = &metrics;
  return options;
}

/// One BackendSet replaying a plan frame by frame on its own 1-worker
/// executor. frame() returns the frame's throughput: each backend's block
/// share over its observed rate, the frame taking the slowest backend's
/// simulated time.
class FrameReplay {
 public:
  FrameReplay(const PlanFixture& f, std::vector<exec::BackendSpec> specs)
      : f_(f),
        set_(std::make_shared<exec::BackendSet>(std::move(specs), 0.5,
                                                &reg_)),
        executor_(one_worker(reg_)) {}

  double frame() {
    const Index nblocks = static_cast<Index>(f_.plan->blocks.size());
    const double pulses = static_cast<double>(f_.pulses->num_pulses());
    const std::vector<Index> bounds = set_->partition(nblocks);
    auto tile =
        std::make_shared<bp::SoaTile>(f_.region.width, f_.region.height);
    executor_.run(make_plan_replay_group(f_.plan, f_.pulses, 1, 0, tile,
                                         nullptr, nullptr, 0, -1, set_));
    double total = 0.0;
    double slowest = 0.0;
    for (int k = 0; k < set_->size(); ++k) {
      double work = 0.0;
      for (Index b = bounds[static_cast<std::size_t>(k)];
           b < bounds[static_cast<std::size_t>(k) + 1]; ++b) {
        const auto& block = f_.plan->blocks[static_cast<std::size_t>(b)];
        work += static_cast<double>(block.width * block.height) * pulses;
      }
      total += work;
      if (work > 0.0) {
        slowest = std::max(slowest, work / set_->backend(k).observed_rate());
      }
    }
    return total / slowest;
  }

  [[nodiscard]] std::vector<double> split() const { return set_->split(); }

 private:
  const PlanFixture& f_;
  obs::Registry reg_;
  std::shared_ptr<exec::BackendSet> set_;
  exec::TileExecutor executor_;
};

exec::BackendSpec xeon_spec() {
  exec::BackendSpec spec;  // kHostScalar: the host model's anchor rate
  spec.name = "xeon";
  return spec;
}

exec::BackendSpec knc_spec(const char* name) {
  exec::BackendSpec spec;
  spec.kind = exec::BackendSpec::Kind::kOffloadSim;
  spec.name = name;
  return spec;
}

// Large enough that each backend's block range sweeps for milliseconds;
// sub-millisecond sweeps are dominated by timer noise, which destabilizes
// the observed-rate adaptation.
PlanFixture split_fixture() { return make_plan_fixture(256, 48, 32); }

TEST(BackendSet, SplitConvergesTowardEffectiveRates) {
  const PlanFixture f = split_fixture();
  FrameReplay replay(f, {xeon_spec(), knc_spec("knc0"), knc_spec("knc1")});
  for (int frame = 0; frame < 6; ++frame) (void)replay.frame();
  const std::vector<double> split = replay.split();
  ASSERT_EQ(split.size(), 3u);
  // Expected fractions from effective rates: 277 : 538 : 538. The loose
  // tolerance absorbs the timing noise of a shared machine; the structural
  // property is host < device and device ~ device.
  EXPECT_NEAR(split[0], 277.2 / 1352.4, 0.13);
  EXPECT_NEAR(split[1], 537.6 / 1352.4, 0.13);
  EXPECT_NEAR(split[2], 537.6 / 1352.4, 0.13);
  EXPECT_LT(split[0], split[1]);
  EXPECT_LT(split[0], split[2]);
}

TEST(BackendSet, Table3ThroughputRatios) {
  // The Table 3 shape: 1 KNC ~ 1.9x the dual Xeon; Xeon + 2 KNC ~ 4.8x.
  const PlanFixture f = split_fixture();
  FrameReplay xeon(f, {xeon_spec()});
  FrameReplay knc(f, {knc_spec("knc0")});
  FrameReplay combined(f, {xeon_spec(), knc_spec("knc0"), knc_spec("knc1")});
  // Frames of the three sets interleave, so a slow spell of a shared host
  // hits every set alike. Two settle frames for the split adaptation, then
  // best-of: host interference only ever lowers a frame's throughput.
  double best[3] = {0.0, 0.0, 0.0};
  for (int frame = 0; frame < 8; ++frame) {
    const double rates[3] = {xeon.frame(), knc.frame(), combined.frame()};
    if (frame < 2) continue;
    for (int i = 0; i < 3; ++i) best[i] = std::max(best[i], rates[i]);
  }
  // Assert the Table 3 ordering and coarse magnitudes (paper: 1.9x and
  // 4.8x). The table3_offload bench reports the model-anchored numbers.
  EXPECT_GT(best[1], best[0]);
  EXPECT_GT(best[2], best[1]);
  EXPECT_NEAR(best[1] / best[0], 1.9, 0.7);
  EXPECT_NEAR(best[2] / best[0], 4.8, 2.3);
}

// --- service end-to-end through the router -------------------------------

ImageFormationRequest request_for(const PlanFixture& f) {
  ImageFormationRequest req;
  req.grid = f.scenario.grid;
  req.pulses = f.pulses;
  req.asr_block_w = req.asr_block_h = 16;
  return req;
}

Grid2D<CFloat> form_via_service(const PlanFixture& f, ServiceConfig sc) {
  obs::Registry reg;
  if (sc.metrics == nullptr) sc.metrics = &reg;
  ImageFormationService service(std::move(sc));
  auto outcome = service.submit(request_for(f));
  EXPECT_TRUE(outcome.admitted());
  const JobResult& result = outcome.handle->wait();
  EXPECT_EQ(result.state, JobState::kDone) << result.error;
  return result.image;
}

Grid2D<CFloat> form_via_service(const PlanFixture& f,
                                std::vector<exec::BackendSpec> backends) {
  ServiceConfig sc;
  sc.backends = std::move(backends);
  return form_via_service(f, std::move(sc));
}

/// The single-thread scalar anchor: the plan replayed by execute_plan.
Grid2D<CFloat> form_via_execute_plan(const PlanFixture& f) {
  bp::SoaTile tile(f.region.width, f.region.height);
  EXPECT_TRUE(service::execute_plan(*f.plan, *f.pulses, tile, nullptr));
  return grid_of(tile);
}

bool images_equal(const Grid2D<CFloat>& a, const Grid2D<CFloat>& b) {
  for (Index y = 0; y < a.height(); ++y) {
    for (Index x = 0; x < a.width(); ++x) {
      if (a.at(x, y) != b.at(x, y)) return false;
    }
  }
  return true;
}

TEST(ServiceBackends, ScalarBackendSetIsByteIdenticalToExecutePlan) {
  const PlanFixture f = make_plan_fixture();
  const Grid2D<CFloat> anchor = form_via_execute_plan(f);

  exec::BackendSpec scalar;  // kHostScalar
  const Grid2D<CFloat> routed = form_via_service(f, {scalar});
  EXPECT_TRUE(images_equal(anchor, routed));

  // Several scalar backends partition the block range differently but
  // sweep disjoint pixel rectangles with the same per-block pulse order —
  // still byte-identical.
  exec::BackendSpec second;
  second.name = "scalar2";
  const Grid2D<CFloat> split2 = form_via_service(f, {scalar, second});
  EXPECT_TRUE(images_equal(anchor, split2));
}

TEST(ServiceBackends, SimdBackendMatchesExecutePlanAtSnrLevel) {
  if (!bp::asr_simd_available()) GTEST_SKIP() << "no vector ISA usable";
  const PlanFixture f = make_plan_fixture();
  const Grid2D<CFloat> anchor = form_via_execute_plan(f);
  const Grid2D<CFloat> routed = form_via_service(f, ServiceConfig{});
  EXPECT_GT(snr_db(routed, anchor), 70.0);
}

TEST(ServiceBackends, DefaultServiceRunsSimdBackend) {
  const PlanFixture f = make_plan_fixture();
  obs::Registry reg;
  ServiceConfig sc;
  sc.metrics = &reg;
  const Grid2D<CFloat> image = form_via_service(f, sc);
  if constexpr (obs::kEnabled) {
    const std::string name = std::string("backend.simd-") +
                             bp::simd_isa_name(bp::asr_resolve_isa(
                                 bp::SimdIsa::kAuto)) +
                             ".sweeps";
    EXPECT_GE(reg.counter(name).value(), 1) << name;
  }
  // Without a vector ISA the SIMD backend resolves to kScalar, whose
  // plan sweep degrades to asr_sweep_block: byte-identical to the anchor.
  if (!bp::asr_simd_available()) {
    EXPECT_TRUE(images_equal(form_via_execute_plan(f), image));
  }
}

TEST(ServiceBackends, EmptyBackendListIsRejected) {
  ServiceConfig sc;
  sc.backends.clear();
  EXPECT_THROW(ImageFormationService{sc}, PreconditionError);
}

TEST(ServiceBackends, MixedSetAdaptsSplitAcrossJobs) {
  // scalar + SIMD + simulated coprocessor: run several jobs and check the
  // split gauges end up reflecting observed rates (every backend swept at
  // least once, rates positive, split summing to ~1000 permille).
  const PlanFixture f = make_plan_fixture();
  std::vector<exec::BackendSpec> specs(2);
  specs[0].kind = exec::BackendSpec::Kind::kHostScalar;
  specs[1].kind = exec::BackendSpec::Kind::kOffloadSim;
  specs[1].name = "knc";

  obs::Registry reg;
  ServiceConfig sc;
  sc.workers = 2;
  sc.metrics = &reg;
  sc.backends = specs;
  {
    ImageFormationService service(sc);
    for (int job = 0; job < 4; ++job) {
      auto outcome = service.submit(request_for(f));
      ASSERT_TRUE(outcome.admitted());
      ASSERT_EQ(outcome.handle->wait().state, JobState::kDone);
    }
  }
  if constexpr (obs::kEnabled) {
    EXPECT_GE(reg.counter("backend.scalar.sweeps").value(), 1);
    EXPECT_GE(reg.counter("backend.knc.sweeps").value(), 1);
    EXPECT_GT(reg.gauge("backend.scalar.rate_bp_s").value(), 0);
    EXPECT_GT(reg.gauge("backend.knc.rate_bp_s").value(), 0);
    const auto permille = reg.gauge("backend.scalar.split_permille").value() +
                          reg.gauge("backend.knc.split_permille").value();
    EXPECT_NEAR(static_cast<double>(permille), 1000.0, 2.0);
  }
}

}  // namespace
}  // namespace sarbp::service
