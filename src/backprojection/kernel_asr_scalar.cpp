// ASR backprojection, portable scalar form — a direct realization of the
// paper's Fig. 3(b):
//
//   for each pixel block:
//     pre-compute A, B, C, Phi, Psi, Gamma          (tables.cpp, double)
//     for each m (outer image axis):
//       gamma = (1, 0)
//       for each l (inner image axis):
//         bin = A[l] + B[m] + l*C[m]
//         arg = Phi[l] * Psi[m] * gamma             (8 muls, 4 adds)
//         gamma *= Gamma[m]                         (4 muls, 2 adds)
//         sample = interp(In, bin)                  (irregular access)
//         Out[l, m] += arg * sample
//
// Loop structure is block-outer / pulse-inner (the cache-blocking cube C of
// Fig. 5(b)): one block's output tile stays resident while every pulse in
// the assigned range streams over it. The quadratic fit and the inner sweep
// live in kernel_asr_block.h, shared with the service's cached-plan
// executor; this file owns only the streaming table construction.
#include <numbers>

#include "asr/block_plan.h"
#include "asr/quadratic.h"
#include "asr/tables.h"
#include "backprojection/kernel.h"
#include "backprojection/kernel_asr_block.h"
#include "common/check.h"

namespace sarbp::bp {

void backproject_asr_scalar(const sim::PhaseHistory& history,
                            const geometry::ImageGrid& grid,
                            const Region& region, Index pulse_begin,
                            Index pulse_end, Index block_w, Index block_h,
                            geometry::LoopOrder order, SoaTile& out) {
  ensure(pulse_begin >= 0 && pulse_end <= history.num_pulses() &&
             pulse_begin <= pulse_end,
         "backproject_asr_scalar: pulse range out of bounds");
  ensure(out.width() == region.width && out.height() == region.height,
         "backproject_asr_scalar: tile/region shape mismatch");
  const double two_pi_k = 2.0 * std::numbers::pi * history.wavenumber();
  const Index samples = history.samples_per_pulse();
  const bool x_inner = order == geometry::LoopOrder::kXInner;

  const auto blocks = asr::plan_blocks(region.x0, region.y0, region.width,
                                       region.height, block_w, block_h);
  asr::TableWorkspace workspace;

  for (const auto& block : blocks) {
    const geometry::Vec3 centre = grid.position_f(
        static_cast<double>(block.x0) + 0.5 * static_cast<double>(block.width - 1),
        static_cast<double>(block.y0) + 0.5 * static_cast<double>(block.height - 1));
    // Table extents under the chosen order: l is the inner image axis.
    const Index len_l = x_inner ? block.width : block.height;
    const Index len_m = x_inner ? block.height : block.width;
    // Tile-local coordinates of the block origin.
    const Index bx = block.x0 - region.x0;
    const Index by = block.y0 - region.y0;

    for (Index p = pulse_begin; p < pulse_end; ++p) {
      const auto& meta = history.meta(p);
      const asr::Quadratic2D q =
          block_range_quadratic(centre, meta.position, grid.spacing(), order);
      const asr::BlockTables& tables = workspace.resize(len_l, len_m);
      asr::build_block_tables_fast(q, meta.start_range_m, history.bin_spacing(),
                                   two_pi_k, tables);
      asr_sweep_block(tables, history.pulse(p).data(), samples, x_inner, bx,
                      by, len_l, len_m, out);
    }
  }
}

}  // namespace sarbp::bp
