#include "inputs.h"

#include <algorithm>
#include <numbers>
#include <thread>

#include "asr/error_model.h"
#include "backprojection/kernel.h"
#include "harness.h"
#include "sim/collector.h"

namespace perfbench {

using namespace sarbp;

geometry::OrbitParams standard_orbit(double start_angle_rad) {
  geometry::OrbitParams orbit;
  orbit.radius_m = 40000.0;
  orbit.altitude_m = 8000.0;
  orbit.angular_rate_rad_s = 0.02;
  orbit.prf_hz = 500.0;
  orbit.start_angle_rad = start_angle_rad;
  return orbit;
}

double side_on_aspect(Rng& rng) {
  return 0.5 * std::numbers::pi * static_cast<double>(rng.below(4)) +
         rng.uniform(-0.01, 0.01);
}

Collection collect(const geometry::ImageGrid& grid,
                   const sim::ReflectorScene& scene,
                   const geometry::OrbitParams& orbit,
                   const geometry::TrajectoryErrorModel& errors, Index pulses,
                   double time_offset_s, Rng& rng,
                   std::vector<double>& collect_seconds) {
  auto poses = geometry::circular_orbit(orbit, errors, pulses, rng);
  for (auto& pose : poses) pose.time_s += time_offset_s;
  sim::CollectorParams params;
  const auto t0 = Clock::now();
  Span span("sim.collect");
  auto history = std::make_shared<const sim::PhaseHistory>(
      sim::collect(params, grid, scene, poses, rng));
  collect_seconds.push_back(seconds_between(t0, Clock::now()));
  return Collection{grid, std::move(history)};
}

Collection cluster_collection(Index px, Index pulses, double start_angle_rad,
                              Rng& rng, std::vector<double>& collect_seconds) {
  const geometry::ImageGrid grid(px, px, 0.5);
  const sim::ReflectorScene scene =
      sim::make_cluster_scene(grid, sim::ClusterSceneParams{}, rng);
  geometry::TrajectoryErrorModel errors;
  errors.perturbation_sigma_m = 0.05;
  return collect(grid, scene, standard_orbit(start_angle_rad), errors, pulses,
                 0.0, rng, collect_seconds);
}

sim::PhaseHistory slice(const sim::PhaseHistory& h, Index p0, Index p1) {
  sim::PhaseHistory out(p1 - p0, h.samples_per_pulse(), h.bin_spacing(),
                        h.wavenumber());
  for (Index p = p0; p < p1; ++p) {
    const auto src = h.pulse(p);
    std::copy(src.begin(), src.end(), out.pulse(p - p0).begin());
    out.meta(p - p0) = h.meta(p);
  }
  out.build_soa();
  return out;
}

Grid2D<CDouble> reference_image(const sim::PhaseHistory& history,
                                const geometry::ImageGrid& grid) {
  Grid2D<CDouble> out(grid.width(), grid.height());
  const Index parts = std::clamp<Index>(
      static_cast<Index>(std::thread::hardware_concurrency()), 1,
      grid.height());
  std::vector<std::thread> threads;
  for (Index i = 0; i < parts; ++i) {
    const Index y0 = grid.height() * i / parts;
    const Index y1 = grid.height() * (i + 1) / parts;
    // Disjoint row bands of one full-size image: no two threads write the
    // same pixel.
    threads.emplace_back([&, y0, y1] {
      bp::backproject_ref(history, grid, Region{0, y0, grid.width(), y1 - y0},
                          0, history.num_pulses(), out);
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

double predicted_floor_db(const sim::PhaseHistory& history,
                          const geometry::ImageGrid& grid, Index block) {
  const Index n = history.num_pulses();
  double floor = std::numeric_limits<double>::infinity();
  for (const Index p : {Index{0}, n / 2, n - 1}) {
    floor = std::min(floor, asr::predicted_snr_db(
                                grid, history.meta(p).position,
                                history.wavenumber(), block, block));
  }
  return floor;
}

}  // namespace perfbench
