// Empirical gather-locality measurement (paper §4.3): "We can analytically
// compute how many consecutive backprojections access the same entry of In
// on average. This value is 5 when reordering optimization is not used ...
// This value increases to 17 when reordering optimization is applied."
//
// Counts, over the actual pixel traversal order, the average run length of
// consecutive pixels whose interpolation reads the same integer range bin —
// the quantity that determines how many cache lines a SIMD gather touches.
#pragma once

#include "common/region.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "geometry/wavefront.h"
#include "sim/phase_history.h"

namespace sarbp::bp {

struct LocalityStats {
  double mean_run_length = 0.0;      ///< consecutive same-bin accesses
  /// Mean distinct 64 B lines one SIMD-width gather touches in the AoS
  /// pulse buffer, counting both samples each lane interpolates: 1 at
  /// best, 2 * simd_width at worst.
  double cache_lines_per_gather = 0.0;
};

/// Measures access locality for one pulse under the given loop order.
LocalityStats measure_gather_locality(const sim::PhaseHistory& history,
                                      const geometry::ImageGrid& grid,
                                      const Region& region, Index pulse,
                                      geometry::LoopOrder order,
                                      int simd_width = 16);

}  // namespace sarbp::bp
