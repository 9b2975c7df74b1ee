// Simulator tests: reflector visibility windows, cluster scene generation,
// phase-history layout (AoS/SoA parity), and the collector — including
// agreement between the full-waveform chain (chirp -> echo -> matched
// filter) and the analytic ideal response.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>

#include "common/rng.h"
#include "geometry/trajectory.h"
#include "sim/collector.h"
#include "sim/phase_history.h"
#include "sim/scene.h"
#include "test_helpers.h"

namespace sarbp::sim {
namespace {

TEST(Reflector, VisibilityWindow) {
  Reflector r;
  r.appear_s = 5.0;
  r.disappear_s = 10.0;
  EXPECT_FALSE(r.visible_at(4.9));
  EXPECT_TRUE(r.visible_at(5.0));
  EXPECT_TRUE(r.visible_at(9.99));
  EXPECT_FALSE(r.visible_at(10.0));
}

TEST(Reflector, DefaultAlwaysVisible) {
  Reflector r;
  EXPECT_TRUE(r.visible_at(0.0));
  EXPECT_TRUE(r.visible_at(1e9));
}

TEST(Scene, VisibleAtFilters) {
  ReflectorScene scene;
  Reflector a;
  a.disappear_s = 1.0;
  Reflector b;
  b.appear_s = 2.0;
  scene.add(a);
  scene.add(b);
  EXPECT_EQ(scene.visible_at(0.5).size(), 1u);
  EXPECT_EQ(scene.visible_at(1.5).size(), 0u);
  EXPECT_EQ(scene.visible_at(2.5).size(), 1u);
}

TEST(Scene, ClusterSceneIsDeterministicAndInBounds) {
  geometry::ImageGrid grid(256, 256, 1.0);
  ClusterSceneParams params;
  Rng rng1(99);
  Rng rng2(99);
  const auto s1 = make_cluster_scene(grid, params, rng1);
  const auto s2 = make_cluster_scene(grid, params, rng2);
  ASSERT_EQ(s1.size(), s2.size());
  EXPECT_EQ(s1.size(),
            static_cast<std::size_t>(params.clusters *
                                     params.reflectors_per_cluster));
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1.reflectors()[i].position, s2.reflectors()[i].position);
    // Clusters live in the central region; allow the cluster radius spill.
    EXPECT_LE(std::abs(s1.reflectors()[i].position.x),
              0.5 * grid.extent_x() + params.cluster_radius_m);
    EXPECT_GE(s1.reflectors()[i].amplitude, params.amplitude_min);
    EXPECT_LE(s1.reflectors()[i].amplitude, params.amplitude_max);
  }
}

TEST(PhaseHistory, ShapeAndMetadata) {
  PhaseHistory ph(4, 100, 0.5, 64.0);
  EXPECT_EQ(ph.num_pulses(), 4);
  EXPECT_EQ(ph.samples_per_pulse(), 100);
  EXPECT_DOUBLE_EQ(ph.bin_spacing(), 0.5);
  EXPECT_DOUBLE_EQ(ph.wavenumber(), 64.0);
  EXPECT_EQ(ph.pulse(0).size(), 100u);
  ph.meta(2).start_range_m = 123.0;
  EXPECT_DOUBLE_EQ(ph.meta(2).start_range_m, 123.0);
  EXPECT_EQ(ph.payload_bytes(), 4u * 100u * sizeof(CFloat));
}

class CollectorTest : public ::testing::Test {
 protected:
  static constexpr double kTwoPi = 2.0 * std::numbers::pi;

  /// One reflector dead-centre, tiny scene, few pulses.
  testing::SmallScenario single_reflector(CollectionFidelity fidelity) {
    testing::ScenarioConfig cfg;
    cfg.image = 32;
    cfg.pulses = 4;
    cfg.fidelity = fidelity;
    cfg.perturbation_sigma = 0.0;
    testing::SmallScenario s = testing::make_scenario(cfg);
    // Replace the random scene with one exactly-centred unit reflector.
    Reflector r;
    r.position = s.grid.centre();
    s.scene = ReflectorScene({r});
    CollectorParams params;
    params.fidelity = fidelity;
    Rng rng(1);
    s.history = collect(params, s.grid, s.scene, s.poses, rng);
    return s;
  }
};

TEST_F(CollectorTest, IdealResponsePeaksAtTrueRangeBin) {
  const auto s = single_reflector(CollectionFidelity::kIdealResponse);
  for (Index p = 0; p < s.history.num_pulses(); ++p) {
    const auto& meta = s.history.meta(p);
    const double r = geometry::distance(
        s.grid.centre(), s.poses[static_cast<std::size_t>(p)].true_position);
    const double expected_bin = (r - meta.start_range_m) / s.history.bin_spacing();
    const auto samples = s.history.pulse(p);
    std::size_t peak = 0;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      if (std::abs(samples[i]) > std::abs(samples[peak])) peak = i;
    }
    EXPECT_NEAR(static_cast<double>(peak), expected_bin, 1.0) << "pulse " << p;
  }
}

TEST_F(CollectorTest, IdealResponsePhaseIsMinusTwoPiKR) {
  const auto s = single_reflector(CollectionFidelity::kIdealResponse);
  const auto& meta = s.history.meta(0);
  const double r = geometry::distance(s.grid.centre(),
                                      s.poses[0].true_position);
  const double bin = (r - meta.start_range_m) / s.history.bin_spacing();
  const auto samples = s.history.pulse(0);
  const auto v = samples[static_cast<std::size_t>(std::llround(bin))];
  const double expected =
      std::remainder(-kTwoPi * s.history.wavenumber() * r, kTwoPi);
  EXPECT_NEAR(std::remainder(std::arg(std::complex<double>(v.real(), v.imag())) -
                                 expected,
                             kTwoPi),
              0.0, 0.2);
}

TEST_F(CollectorTest, FullWaveformPeaksAtSameBinAsIdeal) {
  const auto full = single_reflector(CollectionFidelity::kFullWaveform);
  const auto ideal = single_reflector(CollectionFidelity::kIdealResponse);
  // Peak bin of the matched-filtered full waveform must agree with the
  // analytic response's (same geometry, same seed -> same poses).
  const auto fw = full.history.pulse(0);
  const auto id = ideal.history.pulse(0);
  auto argmax = [](std::span<const CFloat> v) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (std::abs(v[i]) > std::abs(v[best])) best = i;
    }
    return best;
  };
  // Windows can differ in length; compare peak *ranges*, not raw indices.
  const double r_fw = full.history.meta(0).start_range_m +
                      static_cast<double>(argmax(fw)) * full.history.bin_spacing();
  const double r_id = ideal.history.meta(0).start_range_m +
                      static_cast<double>(argmax(id)) * ideal.history.bin_spacing();
  EXPECT_NEAR(r_fw, r_id, 2.0 * full.history.bin_spacing());
}

TEST_F(CollectorTest, FullWaveformPeakPhaseMatchesCarrier) {
  const auto s = single_reflector(CollectionFidelity::kFullWaveform);
  const auto& meta = s.history.meta(0);
  const double r = geometry::distance(s.grid.centre(), s.poses[0].true_position);
  const double bin = (r - meta.start_range_m) / s.history.bin_spacing();
  const auto samples = s.history.pulse(0);
  const auto v = samples[static_cast<std::size_t>(std::llround(bin))];
  const double measured = std::arg(std::complex<double>(v.real(), v.imag()));
  const double expected = -kTwoPi * s.history.wavenumber() * r;
  EXPECT_NEAR(std::remainder(measured - expected, kTwoPi), 0.0, 0.3);
}

TEST(Collector, RandomFidelityFillsEverySample) {
  testing::ScenarioConfig cfg;
  cfg.image = 16;
  cfg.pulses = 3;
  cfg.fidelity = CollectionFidelity::kRandom;
  const auto s = testing::make_scenario(cfg);
  Index nonzero = 0;
  for (Index p = 0; p < s.history.num_pulses(); ++p) {
    for (const auto& v : s.history.pulse(p)) {
      if (v != CFloat{}) ++nonzero;
    }
  }
  EXPECT_EQ(nonzero, s.history.num_pulses() * s.history.samples_per_pulse());
}

TEST(Collector, NoiseChangesSamples) {
  testing::ScenarioConfig cfg;
  cfg.image = 16;
  cfg.pulses = 2;
  auto clean = testing::make_scenario(cfg);

  Rng rng(cfg.seed);
  (void)rng;
  CollectorParams noisy_params;
  noisy_params.noise_sigma = 0.1;
  Rng rng2(123);
  const auto noisy = collect(noisy_params, clean.grid, clean.scene,
                             clean.poses, rng2);
  double diff = 0.0;
  for (Index p = 0; p < clean.history.num_pulses(); ++p) {
    const auto a = clean.history.pulse(p);
    const auto b = noisy.pulse(p);
    for (std::size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(Collector, TransientReflectorAbsentBeforeAppearance) {
  testing::ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 8;
  auto s = testing::make_scenario(cfg);
  // One reflector that appears only after the collection ends.
  Reflector r;
  r.position = s.grid.centre();
  r.appear_s = 1e6;
  s.scene = ReflectorScene({r});
  CollectorParams params;
  Rng rng(1);
  const auto history = collect(params, s.grid, s.scene, s.poses, rng);
  for (Index p = 0; p < history.num_pulses(); ++p) {
    for (const auto& v : history.pulse(p)) {
      EXPECT_EQ(v, CFloat{});
    }
  }
}

TEST(Collector, WindowCoversSceneSpan) {
  testing::ScenarioConfig cfg;
  cfg.image = 64;
  cfg.pulses = 4;
  const auto s = testing::make_scenario(cfg);
  // Every grid pixel's range must land strictly inside the receive window.
  for (Index p = 0; p < s.history.num_pulses(); ++p) {
    const auto& meta = s.history.meta(p);
    for (Index corner = 0; corner < 4; ++corner) {
      const Index x = (corner & 1) ? s.grid.width() - 1 : 0;
      const Index y = (corner & 2) ? s.grid.height() - 1 : 0;
      const double r = geometry::distance(
          s.grid.position(x, y),
          s.poses[static_cast<std::size_t>(p)].recorded_position);
      const double bin = (r - meta.start_range_m) / s.history.bin_spacing();
      EXPECT_GT(bin, 0.0);
      EXPECT_LT(bin, static_cast<double>(s.history.samples_per_pulse() - 1));
    }
  }
}

}  // namespace
}  // namespace sarbp::sim
