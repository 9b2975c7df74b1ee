// The four workloads of the sarbp benchmark. Each one generates its inputs
// from the seed during setup(), drives the library's public API during
// run(), and checks sampled outputs in check(). Every knob a workload does
// not name keeps the library's default, so a change of default shows up
// as a measured change.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "pipeline/pipeline.h"

namespace perfbench {

/// What the traced run's ladder needs to time each layer on its own at a
/// workload's shapes.
struct LadderInputs {
  /// Formation geometries the workload's traffic forms; jobs[0] is the
  /// representative one for rungs timed on a single geometry.
  std::vector<Collection> jobs;
  Index block = 64;
  /// Backprojections in the workload's unit of work (job, update, frame).
  double bp_per_job = 0.0;
  /// Pipeline rung: a reference and a current pass of the surveillance
  /// scene. Empty unless the workload runs the pipeline; the ladder then
  /// generates them with make_repeat_pass().
  Collection pipeline_reference;
  Collection pipeline_current;
  /// True when the traffic itself yields the service.* (formation jobs) or
  /// streaming.* metrics; otherwise the ladder's rungs supply them.
  bool service_traffic = false;
  bool stream_traffic = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs for a run of `seconds`, builds the service or
  /// pipeline, and warms it up. Timed as setup_s.
  virtual void setup(std::uint64_t seed, double seconds) = 0;
  /// The measured phase.
  virtual Phase run(double seconds) = 0;
  /// Output checks on the phase's sampled outputs (appends to
  /// phase.errors).
  virtual void check(Phase& phase) = 0;
  [[nodiscard]] virtual LadderInputs ladder_inputs() const = 0;

  /// Wall time of every sim::collect call made during setup.
  std::vector<double> collect_seconds;
};

/// The surveillance scene: a 256 x 256 clutter field imaged by a reference
/// pass and `passes` repeat passes with INS shifts, plus one transient
/// target present in every repeat pass.
struct RepeatPass {
  sarbp::geometry::ImageGrid grid{0, 0, 1.0};
  std::vector<Collection> passes;  ///< [0] is the reference pass
  Index target_x = 0;
  Index target_y = 0;
};
[[nodiscard]] RepeatPass make_repeat_pass(std::uint64_t seed, int passes,
                                          std::vector<double>& collect_seconds);

/// The pipeline configuration of the surveillance workload: library
/// defaults, one pulse batch per frame.
[[nodiscard]] sarbp::pipeline::PipelineConfig surveillance_config();

/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// Worker count of every service and executor the benchmark builds: one per
/// core.
[[nodiscard]] int host_workers();

}  // namespace perfbench
