// Driver-level tests: the OpenMP Backprojector against single-threaded
// kernel runs, every kernel option through the driver, incremental
// (circular-buffer) accumulation vs monolithic backprojection, the Fig. 7
// breakdown instrumentation, and the empirical gather-locality counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "backprojection/accumulator.h"
#include "backprojection/backprojector.h"
#include "backprojection/breakdown.h"
#include "backprojection/locality.h"
#include "common/check.h"
#include "common/snr.h"
#include "test_helpers.h"

namespace sarbp::bp {
namespace {

using sarbp::testing::ScenarioConfig;
using sarbp::testing::SmallScenario;
using sarbp::testing::make_scenario;

class DriverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg;
    cfg.image = 128;
    cfg.pulses = 32;
    scenario_ = new SmallScenario(make_scenario(cfg));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static SmallScenario* scenario_;
};

SmallScenario* DriverTest::scenario_ = nullptr;

TEST_F(DriverTest, DriverMatchesDirectKernelCall) {
  const auto& s = *scenario_;
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  opts.threads = 1;
  const Backprojector driver(s.grid, opts);
  const Grid2D<CFloat> via_driver = driver.form_image(s.history);

  Region all{0, 0, s.grid.width(), s.grid.height()};
  SoaTile tile(all.width, all.height);
  backproject_asr_scalar(s.history, s.grid, all, 0, s.history.num_pulses(),
                         64, 64, geometry::LoopOrder::kXInner, tile);
  Grid2D<CFloat> direct(all.width, all.height);
  tile.accumulate_into(direct, all);

  // The driver may reorder loops per pulse; results agree to rounding.
  EXPECT_GT(snr_db(via_driver, direct), 60.0);
}

TEST_F(DriverTest, MultiThreadMatchesSingleThread) {
  const auto& s = *scenario_;
  for (KernelKind kind : {KernelKind::kAsrSimd, KernelKind::kBaseline}) {
    if (kind == KernelKind::kAsrSimd && !asr_simd_available()) continue;
    BackprojectOptions opts;
    opts.kernel = kind;
    opts.threads = 1;
    const Grid2D<CFloat> one = Backprojector(s.grid, opts).form_image(s.history);
    opts.threads = 4;  // forces a multi-part decomposition even on 1 core
    const Grid2D<CFloat> four = Backprojector(s.grid, opts).form_image(s.history);
    EXPECT_GT(snr_db(four, one), 80.0) << kernel_name(kind);
  }
}

/// A default Backprojector (the SIMD kernel where the host has one) and
/// the scalar ASR kernel over the same history agree at the SIMD-vs-scalar
/// floor of the kernel variant tests.
void expect_default_matches_scalar(const geometry::ImageGrid& grid,
                                   const sim::PhaseHistory& history) {
  const Grid2D<CFloat> fast =
      Backprojector(grid, BackprojectOptions{}).form_image(history);
  BackprojectOptions scalar;
  scalar.kernel = KernelKind::kAsrScalar;
  const Grid2D<CFloat> slow = Backprojector(grid, scalar).form_image(history);
  EXPECT_GT(snr_db(fast, slow), 70.0);
}

TEST_F(DriverTest, HandFilledHistoryFormsLikeScalar) {
  // Samples written through pulse() and nothing else are all a kernel
  // needs: there is no second layout to prepare.
  const auto& s = *scenario_;
  sim::PhaseHistory copy(s.history.num_pulses(),
                         s.history.samples_per_pulse(),
                         s.history.bin_spacing(), s.history.wavenumber());
  for (Index p = 0; p < copy.num_pulses(); ++p) {
    const auto src = s.history.pulse(p);
    std::copy(src.begin(), src.end(), copy.pulse(p).begin());
    copy.meta(p) = s.history.meta(p);
  }
  expect_default_matches_scalar(s.grid, copy);
}

TEST_F(DriverTest, InPlaceSampleEditReachesEveryKernel) {
  // Rotate every sample of a collected history in place, pulse by pulse;
  // the SIMD kernel must see the edit just as the scalar kernel does.
  sim::PhaseHistory edited = scenario_->history;
  for (Index p = 0; p < edited.num_pulses(); ++p) {
    const double phase = 0.7 + 0.3 * static_cast<double>(p);
    const CFloat rot(static_cast<float>(std::cos(phase)),
                     static_cast<float>(std::sin(phase)));
    for (auto& sample : edited.pulse(p)) sample *= rot;
  }
  expect_default_matches_scalar(scenario_->grid, edited);
}

TEST_F(DriverTest, RefDoubleKernelRejectedAtConstruction) {
  // The double reference has no tile form; a default-threaded form_image
  // would otherwise reach it inside the OpenMP region.
  BackprojectOptions opts;
  opts.kernel = KernelKind::kRefDouble;
  EXPECT_THROW((void)Backprojector(scenario_->grid, opts), PreconditionError);
}

TEST_F(DriverTest, PulseSplitPartitionsStillCorrect) {
  // Tiny image + many workers forces pulse-dimension splitting, which
  // exercises the overlapping-region reduction path.
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 32;
  const SmallScenario s = make_scenario(cfg);
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  opts.min_region_edge = 64;
  opts.threads = 1;
  const Grid2D<CFloat> one = Backprojector(s.grid, opts).form_image(s.history);
  opts.threads = 8;
  const Grid2D<CFloat> eight = Backprojector(s.grid, opts).form_image(s.history);
  EXPECT_GT(snr_db(eight, one), 80.0);
}

TEST_F(DriverTest, DynamicReorderPreservesResult) {
  const auto& s = *scenario_;
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  opts.threads = 1;
  opts.dynamic_reorder = true;
  const Grid2D<CFloat> reordered = Backprojector(s.grid, opts).form_image(s.history);
  opts.dynamic_reorder = false;
  const Grid2D<CFloat> fixed = Backprojector(s.grid, opts).form_image(s.history);
  EXPECT_GT(snr_db(reordered, fixed), 60.0);
}

TEST_F(DriverTest, PulseChunkingPreservesResult) {
  const auto& s = *scenario_;
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  opts.threads = 1;
  opts.pulse_chunk = 4;
  const Grid2D<CFloat> chunked = Backprojector(s.grid, opts).form_image(s.history);
  opts.pulse_chunk = 1024;
  const Grid2D<CFloat> monolithic = Backprojector(s.grid, opts).form_image(s.history);
  EXPECT_GT(snr_db(chunked, monolithic), 100.0);
}

TEST_F(DriverTest, AddPulsesRegionCoversSubimage) {
  const auto& s = *scenario_;
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  const Backprojector driver(s.grid, opts);
  Grid2D<CFloat> out(s.grid.width(), s.grid.height());
  const Region region{32, 16, 64, 48};
  driver.add_pulses_region(s.history, region, 0, s.history.num_pulses(), out);
  // Pixels outside the region stay zero.
  for (Index y = 0; y < out.height(); ++y) {
    for (Index x = 0; x < out.width(); ++x) {
      if (!region.contains(x, y)) {
        ASSERT_EQ(out.at(x, y), CFloat{}) << x << "," << y;
      }
    }
  }
  // Pixels inside are populated.
  double energy = 0.0;
  for (Index y = region.y0; y < region.y0 + region.height; ++y) {
    for (Index x = region.x0; x < region.x0 + region.width; ++x) {
      energy += std::norm(out.at(x, y));
    }
  }
  EXPECT_GT(energy, 0.0);
}

TEST_F(DriverTest, BackprojectionsCountsPixelPulsePairs) {
  const auto& s = *scenario_;
  const Backprojector driver(s.grid, {});
  EXPECT_DOUBLE_EQ(driver.backprojections(s.history),
                   static_cast<double>(s.grid.width() * s.grid.height() *
                                       s.history.num_pulses()));
}

TEST(Accumulator, SumsStoredBatches) {
  IncrementalAccumulator acc(4, 4, 2);
  Grid2D<CFloat> a(4, 4, CFloat{1.0f, 0.0f});
  Grid2D<CFloat> b(4, 4, CFloat{0.0f, 2.0f});
  acc.push(a);
  acc.push(b);
  const Grid2D<CFloat> sum = acc.current();
  EXPECT_EQ(sum.at(1, 1), CFloat(1.0f, 2.0f));
  EXPECT_EQ(acc.stored(), 2);
  EXPECT_EQ(acc.capacity(), 3);
}

TEST(Accumulator, EvictsOldestBeyondCapacity) {
  IncrementalAccumulator acc(2, 2, 1);  // capacity 2 batches
  acc.push(Grid2D<CFloat>(2, 2, CFloat{1.0f, 0.0f}));
  acc.push(Grid2D<CFloat>(2, 2, CFloat{10.0f, 0.0f}));
  acc.push(Grid2D<CFloat>(2, 2, CFloat{100.0f, 0.0f}));
  EXPECT_EQ(acc.stored(), 2);
  EXPECT_EQ(acc.current().at(0, 0), CFloat(110.0f, 0.0f));
}

TEST(Accumulator, FootprintTracksStoredBatches) {
  IncrementalAccumulator acc(8, 8, 3);
  EXPECT_EQ(acc.footprint_bytes(), 0u);
  acc.push(Grid2D<CFloat>(8, 8));
  EXPECT_EQ(acc.footprint_bytes(), 8u * 8u * sizeof(CFloat));
}

TEST(Accumulator, PaperScaleFootprintDoesNotOverflow) {
  // The paper's wide-area grids are 57K x 57K pixels; one CFloat batch at
  // that size is ~26 GB. With Index (int64) factors multiplied in 32 bits
  // the product wraps — the arithmetic must widen to size_t first.
  constexpr Index kPaperDim = 57344;  // 57K, a 7 km scene at 0.125 m pixels
  constexpr std::size_t kExpected = static_cast<std::size_t>(kPaperDim) *
                                    static_cast<std::size_t>(kPaperDim) *
                                    sizeof(CFloat);
  EXPECT_EQ(IncrementalAccumulator::batch_bytes(kPaperDim, kPaperDim),
            kExpected);
  EXPECT_GT(kExpected, std::size_t{1} << 34);  // really is beyond 32 bits
  // The paper's pipeline keeps Naccum = 36 such buffers resident (~948 GB
  // across the cluster); the per-batch figure must scale without wrapping.
  EXPECT_EQ(36u * IncrementalAccumulator::batch_bytes(kPaperDim, kPaperDim),
            36u * kExpected);
}

TEST(Accumulator, IncrementalEqualsMonolithicBackprojection) {
  // The paper's §2 linearity argument: backprojecting pulse batches
  // separately and summing equals backprojecting all pulses at once.
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 30;
  const SmallScenario s = make_scenario(cfg);
  BackprojectOptions opts;
  opts.kernel = KernelKind::kAsrScalar;
  opts.threads = 1;
  const Backprojector driver(s.grid, opts);

  // Monolithic: all 30 pulses at once.
  const Grid2D<CFloat> monolithic = driver.form_image(s.history);

  // Incremental: three batches of 10 through the circular buffer.
  IncrementalAccumulator acc(s.grid.width(), s.grid.height(), 2);
  for (Index batch = 0; batch < 3; ++batch) {
    Grid2D<CFloat> img(s.grid.width(), s.grid.height());
    Region all{0, 0, s.grid.width(), s.grid.height()};
    driver.add_pulses_region(s.history, all, batch * 10, (batch + 1) * 10, img);
    acc.push(std::move(img));
  }
  EXPECT_GT(snr_db(acc.current(), monolithic), 100.0);
}

TEST(Accumulator, ShapeMismatchThrows) {
  IncrementalAccumulator acc(4, 4, 1);
  EXPECT_THROW(acc.push(Grid2D<CFloat>(3, 4)), PreconditionError);
}

TEST(Breakdown, BaselineSectionsRoughlySumToTotal) {
  ScenarioConfig cfg;
  cfg.image = 96;
  cfg.pulses = 12;
  const SmallScenario s = make_scenario(cfg);
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  // Differential timing is noisy on a busy machine, and one burst of load
  // can land on a single section. Each repeat compares its own sections
  // with its own total; the bounds apply to the median repeat.
  constexpr int kRepeats = 5;
  std::vector<double> ratios;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const BaselineBreakdown b = measure_baseline_breakdown(
        s.history, s.grid, all, 0, s.history.num_pulses());
    ASSERT_GT(b.total_s, 0.0);
    EXPECT_GE(b.trig_s(), b.sincos_s);
    ratios.push_back(
        (b.other_s + b.sqrt_s + b.interp_s + b.argred_s + b.sincos_s) /
        b.total_s);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kRepeats / 2,
                   ratios.end());
  const double median = ratios[kRepeats / 2];
  // The parts must still land in the right ballpark of the whole.
  EXPECT_GT(median, 0.3);
  EXPECT_LT(median, 3.0);
}

TEST(Breakdown, AsrInnerPlusPrecomputeIsTotal) {
  ScenarioConfig cfg;
  cfg.image = 96;
  cfg.pulses = 12;
  const SmallScenario s = make_scenario(cfg);
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  const AsrBreakdown b = measure_asr_breakdown(s.history, s.grid, all, 0,
                                               s.history.num_pulses(), 64, 64);
  EXPECT_GT(b.total_s, 0.0);
  EXPECT_GE(b.precompute_s, 0.0);
  EXPECT_NEAR(b.precompute_s + b.inner_s, b.total_s, 1e-9);
}

TEST(Breakdown, AsrFasterThanBaseline) {
  // The core Fig. 7 claim at kernel granularity: the strength-reduced
  // kernel beats the baseline clearly (paper: 2.2x on Xeon).
  ScenarioConfig cfg;
  cfg.image = 128;
  cfg.pulses = 16;
  const SmallScenario s = make_scenario(cfg);
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  // Best of 5 interleaved runs each, so a burst of load from other
  // processes cannot land on only one kernel's single sample.
  double base_s = std::numeric_limits<double>::infinity();
  double asr_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    const BaselineBreakdown base = measure_baseline_breakdown(
        s.history, s.grid, all, 0, s.history.num_pulses());
    base_s = std::min(base_s, base.total_s);
    const AsrBreakdown asr = measure_asr_breakdown(
        s.history, s.grid, all, 0, s.history.num_pulses(), 64, 64);
    asr_s = std::min(asr_s, asr.total_s);
  }
  EXPECT_LT(asr_s, base_s);
}

TEST(Locality, ReorderingImprovesMeasuredRunLength) {
  ScenarioConfig cfg;
  cfg.image = 128;
  cfg.pulses = 4;
  const SmallScenario s = make_scenario(cfg);
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  const geometry::LoopOrder good = geometry::choose_loop_order(
      s.history.meta(0).position, s.grid.centre());
  const geometry::LoopOrder bad = good == geometry::LoopOrder::kXInner
                                      ? geometry::LoopOrder::kYInner
                                      : geometry::LoopOrder::kXInner;
  const LocalityStats with = measure_gather_locality(s.history, s.grid, all,
                                                     0, good);
  const LocalityStats without = measure_gather_locality(s.history, s.grid,
                                                        all, 0, bad);
  EXPECT_GT(with.mean_run_length, without.mean_run_length);
  EXPECT_LE(with.cache_lines_per_gather, without.cache_lines_per_gather);
  EXPECT_GE(with.mean_run_length, 1.0);
  EXPECT_GE(without.mean_run_length, 1.0);
}

TEST(Locality, CacheLinesPerGatherBounded) {
  ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 2;
  const SmallScenario s = make_scenario(cfg);
  const Region all{0, 0, s.grid.width(), s.grid.height()};
  const LocalityStats stats = measure_gather_locality(
      s.history, s.grid, all, 0, geometry::LoopOrder::kXInner, 16);
  // Each lane reads two adjacent 8-byte samples, which may sit on two
  // lines: at most 2 lines per lane.
  EXPECT_GE(stats.cache_lines_per_gather, 1.0);
  EXPECT_LE(stats.cache_lines_per_gather, 32.0);
}

}  // namespace
}  // namespace sarbp::bp
