// Input generation for the benchmark's workloads. Everything is derived
// from the run's seed; the library only ever sees the generated inputs.
#pragma once

#include <memory>
#include <vector>

#include "common/grid2d.h"
#include "common/rng.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "geometry/trajectory.h"
#include "sim/phase_history.h"
#include "sim/scene.h"

namespace perfbench {

using sarbp::Index;

/// One collection: an image grid plus the phase history imaged onto it.
struct Collection {
  sarbp::geometry::ImageGrid grid{0, 0, 1.0};
  std::shared_ptr<const sarbp::sim::PhaseHistory> history;

  [[nodiscard]] double backprojections() const {
    return static_cast<double>(grid.width()) *
           static_cast<double>(grid.height()) *
           static_cast<double>(history->num_pulses());
  }
};

/// The spotlight orbit every workload flies (40 km standoff, 8 km altitude,
/// 500 Hz PRF, X band), starting at `start_angle_rad`.
[[nodiscard]] sarbp::geometry::OrbitParams standard_orbit(
    double start_angle_rad);

/// An orbit start angle that looks at the grid side-on from one of its four
/// sides (within 0.01 rad): the range extent, and with it the data volume,
/// is then the same for every seed.
[[nodiscard]] double side_on_aspect(sarbp::Rng& rng);

/// sim::collect of `pulses` pulses along `orbit` (poses shifted by
/// `time_offset_s`), traced as a "sim.collect" span; appends its wall time
/// to `collect_seconds`.
[[nodiscard]] Collection collect(const sarbp::geometry::ImageGrid& grid,
                                 const sarbp::sim::ReflectorScene& scene,
                                 const sarbp::geometry::OrbitParams& orbit,
                                 const sarbp::geometry::TrajectoryErrorModel&
                                     errors,
                                 Index pulses, double time_offset_s,
                                 sarbp::Rng& rng,
                                 std::vector<double>& collect_seconds);

/// A grid of `px` x `px` 0.5 m pixels around the origin with a seeded
/// cluster scene and a standard-orbit collection of `pulses` pulses.
[[nodiscard]] Collection cluster_collection(Index px, Index pulses,
                                            double start_angle_rad,
                                            sarbp::Rng& rng,
                                            std::vector<double>& collect_seconds);

/// Pulses [p0, p1) of `h` as a history of their own (SoA planes built).
[[nodiscard]] sarbp::sim::PhaseHistory slice(const sarbp::sim::PhaseHistory& h,
                                             Index p0, Index p1);

/// Double-precision reference image (bp::backproject_ref) of every pulse of
/// `history`, rows split across the host's cores.
[[nodiscard]] sarbp::Grid2D<sarbp::CDouble> reference_image(
    const sarbp::sim::PhaseHistory& history,
    const sarbp::geometry::ImageGrid& grid);

/// The ASR error model's SNR floor for forming `grid` from `history` with
/// block x block ASR blocks: the lowest prediction over the first, middle
/// and last pulse positions.
[[nodiscard]] double predicted_floor_db(const sarbp::sim::PhaseHistory& history,
                                        const sarbp::geometry::ImageGrid& grid,
                                        Index block);

}  // namespace perfbench
