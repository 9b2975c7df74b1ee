#include "backprojection/backprojector.h"

#include <omp.h>

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"
#include "geometry/wavefront.h"
#include "obs/metrics.h"

namespace sarbp::bp {
namespace {

/// Contiguous run of pulses sharing one loop order.
struct OrderRun {
  Index begin;
  Index end;
  geometry::LoopOrder order;
};

/// Segments [begin, end) into runs of equal loop order. Along a smooth
/// orbit the orientation changes slowly, so runs are long and the per-run
/// kernel-call overhead is negligible.
std::vector<OrderRun> order_runs(const sim::PhaseHistory& history,
                                 const geometry::ImageGrid& grid,
                                 Index begin, Index end, bool dynamic) {
  std::vector<OrderRun> runs;
  if (begin >= end) return runs;
  if (!dynamic) {
    runs.push_back({begin, end, geometry::LoopOrder::kXInner});
    return runs;
  }
  auto order_of = [&](Index p) {
    return geometry::choose_loop_order(history.meta(p).position,
                                       grid.centre());
  };
  Index run_start = begin;
  geometry::LoopOrder current = order_of(begin);
  for (Index p = begin + 1; p < end; ++p) {
    const geometry::LoopOrder o = order_of(p);
    if (o != current) {
      runs.push_back({run_start, p, current});
      run_start = p;
      current = o;
    }
  }
  runs.push_back({run_start, end, current});
  return runs;
}

}  // namespace

void run_cube_part(const sim::PhaseHistory& history,
                   const geometry::ImageGrid& grid,
                   const BackprojectOptions& options, const CubePart& part,
                   SoaTile& tile) {
  const KernelKind kernel = resolve_kernel(options.kernel);
  // Cache blocking along the pulse dimension: each chunk sweeps the part's
  // pixel blocks while its slice of In is hot.
  for (Index chunk = part.pulse_begin; chunk < part.pulse_end;
       chunk += options.pulse_chunk) {
    const Index chunk_end =
        std::min(chunk + options.pulse_chunk, part.pulse_end);
    for (const OrderRun& run :
         order_runs(history, grid, chunk, chunk_end,
                    options.dynamic_reorder)) {
      switch (kernel) {
        case KernelKind::kBaseline:
          backproject_baseline(history, grid, part.region, run.begin,
                               run.end, /*all_float=*/false, run.order, tile);
          break;
        case KernelKind::kBaselineAllFloat:
          backproject_baseline(history, grid, part.region, run.begin,
                               run.end, /*all_float=*/true, run.order, tile);
          break;
        case KernelKind::kAsrScalar:
          backproject_asr_scalar(history, grid, part.region, run.begin,
                                 run.end, options.asr_block_w,
                                 options.asr_block_h, run.order, tile);
          break;
        case KernelKind::kAsrSimd:
          backproject_asr_simd(history, grid, part.region, run.begin,
                               run.end, options.asr_block_w,
                               options.asr_block_h, run.order, tile);
          break;
        case KernelKind::kRefDouble:
          ensure(false, "run_cube_part: use backproject_ref for the double reference");
      }
    }
  }
}

Backprojector::Backprojector(const geometry::ImageGrid& grid,
                             BackprojectOptions options)
    : grid_(grid), options_(options) {
  ensure(options_.asr_block_w > 0 && options_.asr_block_h > 0,
         "Backprojector: ASR block must be positive");
  ensure(options_.pulse_chunk > 0, "Backprojector: pulse chunk must be positive");
  // Checked here, not in run_cube_part: a throw inside the OpenMP region
  // of add_pulses would terminate the process.
  ensure(options_.kernel != KernelKind::kRefDouble,
         "Backprojector: kRefDouble is not a tile kernel; use backproject_ref");
}

void Backprojector::add_pulses(const sim::PhaseHistory& history,
                               Grid2D<CFloat>& out) const {
  ensure(out.width() == grid_.width() && out.height() == grid_.height(),
         "Backprojector::add_pulses: image shape mismatch");
  if (history.num_pulses() == 0) return;

  const int workers =
      options_.threads > 0 ? options_.threads : omp_get_max_threads();
  const CubeShape shape{history.num_pulses(), grid_.width(), grid_.height()};
  const PartitionChoice choice =
      choose_partition(shape, workers, options_.min_region_edge);
  const std::vector<CubePart> parts = partition_cube(shape, choice);

  auto& reg = obs::registry();
  reg.gauge("bp.partition.parts_x").set(choice.parts_x);
  reg.gauge("bp.partition.parts_y").set(choice.parts_y);
  reg.gauge("bp.partition.parts_pulse").set(choice.parts_pulse);
  obs::Histogram& part_span = reg.histogram("bp.part_s");
  Timer batch_timer;

#pragma omp parallel num_threads(workers)
  {
    // Private tile per part (paper §4.3): contiguous accumulation, then a
    // reduction into the shared image. Regions of different parts overlap
    // only when the pulse dimension is split, but the critical section is
    // cheap either way relative to the backprojection itself.
    SoaTile tile;
#pragma omp for schedule(dynamic, 1)
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const CubePart& part = parts[i];
      obs::ScopedSpan span(part_span);
      tile.reset(part.region.width, part.region.height);
      run_cube_part(history, grid_, options_, part, tile);
#pragma omp critical(sarbp_bp_reduce)
      tile.accumulate_into(out, part.region);
    }
  }

  const double seconds = batch_timer.seconds();
  reg.histogram("bp.add_pulses_s").record(seconds);
  reg.counter("bp.batches").add();
  reg.counter("bp.pulses").add(static_cast<std::uint64_t>(history.num_pulses()));
  if (seconds > 0.0) {
    reg.histogram("bp.pulses_per_s")
        .record(static_cast<double>(history.num_pulses()) / seconds);
    reg.histogram("bp.backprojections_per_s")
        .record(backprojections(history) / seconds);
  }
}

void Backprojector::add_pulses_region(const sim::PhaseHistory& history,
                                      const Region& region, Index pulse_begin,
                                      Index pulse_end,
                                      Grid2D<CFloat>& out) const {
  if (region.empty() || pulse_begin >= pulse_end) return;
  CubePart part;
  part.pulse_begin = pulse_begin;
  part.pulse_end = pulse_end;
  part.region = region;
  SoaTile tile(region.width, region.height);
  run_cube_part(history, grid_, options_, part, tile);
  tile.accumulate_into(out, region);
}

Grid2D<CFloat> Backprojector::form_image(const sim::PhaseHistory& history) const {
  Grid2D<CFloat> out(grid_.width(), grid_.height());
  add_pulses(history, out);
  return out;
}

}  // namespace sarbp::bp
