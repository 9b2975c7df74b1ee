#include "backprojection/locality.h"

#include <cmath>
#include <set>
#include <vector>

#include "common/check.h"

namespace sarbp::bp {

LocalityStats measure_gather_locality(const sim::PhaseHistory& history,
                                      const geometry::ImageGrid& grid,
                                      const Region& region, Index pulse,
                                      geometry::LoopOrder order,
                                      int simd_width) {
  ensure(pulse >= 0 && pulse < history.num_pulses(),
         "measure_gather_locality: pulse out of range");
  ensure(!region.empty(), "measure_gather_locality: empty region");
  const auto& meta = history.meta(pulse);
  const double inv_dr = 1.0 / history.bin_spacing();

  // Bin sequence in traversal order.
  std::vector<Index> bins;
  bins.reserve(static_cast<std::size_t>(region.pixels()));
  auto bin_at = [&](Index x, Index y) {
    const double r = geometry::distance(grid.position(x, y), meta.position);
    return static_cast<Index>((r - meta.start_range_m) * inv_dr);
  };
  if (order == geometry::LoopOrder::kXInner) {
    for (Index y = region.y0; y < region.y0 + region.height; ++y) {
      for (Index x = region.x0; x < region.x0 + region.width; ++x) {
        bins.push_back(bin_at(x, y));
      }
    }
  } else {
    for (Index x = region.x0; x < region.x0 + region.width; ++x) {
      for (Index y = region.y0; y < region.y0 + region.height; ++y) {
        bins.push_back(bin_at(x, y));
      }
    }
  }

  LocalityStats stats;
  // Mean run length of equal consecutive bins.
  std::size_t runs = 1;
  for (std::size_t i = 1; i < bins.size(); ++i) {
    if (bins[i] != bins[i - 1]) ++runs;
  }
  stats.mean_run_length =
      static_cast<double>(bins.size()) / static_cast<double>(runs);

  // Distinct 64-byte lines touched by each simd_width-wide gather from the
  // AoS pulse buffer (8-byte complex samples, line-aligned at bin 0, so 8
  // bins per line). Each lane interpolates In[bin] and In[bin + 1], 16
  // bytes that straddle a line boundary when bin is the last of its line.
  constexpr auto kBinsPerLine = static_cast<Index>(kSimdAlign / sizeof(CFloat));
  double total_lines = 0.0;
  std::size_t gathers = 0;
  for (std::size_t base = 0; base + static_cast<std::size_t>(simd_width) <= bins.size();
       base += static_cast<std::size_t>(simd_width)) {
    std::set<Index> lines;
    for (int lane = 0; lane < simd_width; ++lane) {
      const Index bin = bins[base + static_cast<std::size_t>(lane)];
      lines.insert(bin / kBinsPerLine);
      lines.insert((bin + 1) / kBinsPerLine);
    }
    total_lines += static_cast<double>(lines.size());
    ++gathers;
  }
  stats.cache_lines_per_gather =
      gathers > 0 ? total_lines / static_cast<double>(gathers)
                  : 1.0;
  return stats;
}

}  // namespace sarbp::bp
