// ASR SIMD kernel dispatch (paper §4.4). The vector code itself lives in
// the per-ISA translation units kernel_asr_avx2.cpp (-march=x86-64-v3) and
// kernel_asr_avx512.cpp (-march=x86-64-v4); this TU is ISA-neutral and
// picks one at runtime from host cpuid — one binary carries every width.
// First use also fail-fasts (clear PreconditionError, never SIGILL) when
// the build's *baseline* -march exceeds the host.
//
// Two drivers share one row kernel per ISA, which reads samples straight
// from the AoS pulse buffer:
//  - backproject_asr_simd: builds each (block, pulse) table on the fly and
//    accumulates into an l-contiguous scratch flushed once per block;
//  - asr_plan_sweep_simd: fused plan replay — reads tables prebuilt by the
//    service's plan cache (resident across the whole sweep), and under
//    x_inner accumulates directly into the output tile with no scratch
//    round-trip. Under y_inner the zero_ws/flush_ws flags let the caller
//    keep the workspace resident across a run of consecutive pulses so the
//    zero + transposed flush amortizes per block, not per pulse.
#include <cmath>
#include <numbers>

#include "asr/block_plan.h"
#include "asr/quadratic.h"
#include "asr/tables.h"
#include "backprojection/kernel.h"
#include "backprojection/kernel_asr_block.h"
#include "backprojection/kernel_simd_ops.h"
#include "common/aligned.h"
#include "common/check.h"
#include "common/cpu.h"

namespace sarbp::bp {
namespace {

/// Host capabilities, resolved once. The first kernel call is the natural
/// fail-fast point for baseline-vs-host mismatch: anything that got this
/// far is about to run vector code.
const CpuInfo& host_caps() {
  static const CpuInfo info = [] {
    require_compiled_isa_supported();
    return cpu_info();
  }();
  return info;
}

/// Ops table for a *concrete* resolved ISA; null for kScalar (and for a
/// vector ISA whose TU was not built into this binary).
const detail::AsrIsaOps* ops_for(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx512:
#if SARBP_HAVE_KERNEL_AVX512
      return &detail::asr_isa_ops_avx512();
#else
      return nullptr;
#endif
    case SimdIsa::kAvx2:
#if SARBP_HAVE_KERNEL_AVX2
      return &detail::asr_isa_ops_avx2();
#else
      return nullptr;
#endif
    case SimdIsa::kScalar:
    case SimdIsa::kAuto:
      return nullptr;
  }
  return nullptr;
}

}  // namespace

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAuto: return "auto";
    case SimdIsa::kScalar: return "scalar";
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kAvx512: return "avx512";
  }
  return "?";
}

const char* kernel_variant_name(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kAuto: return "auto";
    case KernelVariant::kGather: return "gather";
    case KernelVariant::kShuffleTranspose: return "shuffle";
  }
  return "?";
}

bool asr_isa_available(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAuto:
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kAvx2:
      return host_caps().avx2;
    case SimdIsa::kAvx512:
      return host_caps().avx512f;
  }
  return false;
}

SimdIsa asr_resolve_isa(SimdIsa requested) {
  if (requested == SimdIsa::kAuto) {
    if (host_caps().avx512f) return SimdIsa::kAvx512;
    if (host_caps().avx2) return SimdIsa::kAvx2;
    return SimdIsa::kScalar;
  }
  ensure(asr_isa_available(requested),
         "asr_resolve_isa: requested SIMD ISA is not usable here (kernel TU "
         "not built in, or the host cpuid lacks it); query "
         "asr_isa_available first");
  return requested;
}

bool asr_simd_available() {
  return asr_resolve_isa(SimdIsa::kAuto) != SimdIsa::kScalar;
}

int asr_simd_width() { return host_caps().simd_width_floats; }

void backproject_asr_simd(const sim::PhaseHistory& history,
                          const geometry::ImageGrid& grid,
                          const Region& region, Index pulse_begin,
                          Index pulse_end, Index block_w, Index block_h,
                          geometry::LoopOrder order, SoaTile& out,
                          SimdIsa isa) {
  const detail::AsrIsaOps* ops = ops_for(asr_resolve_isa(isa));
  if (ops == nullptr) {
    backproject_asr_scalar(history, grid, region, pulse_begin, pulse_end,
                           block_w, block_h, order, out);
    return;
  }
  ensure(pulse_begin >= 0 && pulse_end <= history.num_pulses() &&
             pulse_begin <= pulse_end,
         "backproject_asr_simd: pulse range out of bounds");
  ensure(out.width() == region.width && out.height() == region.height,
         "backproject_asr_simd: tile/region shape mismatch");
  const double two_pi_k = 2.0 * std::numbers::pi * history.wavenumber();
  const Index samples = history.samples_per_pulse();
  const bool x_inner = order == geometry::LoopOrder::kXInner;

  const auto blocks = asr::plan_blocks(region.x0, region.y0, region.width,
                                       region.height, block_w, block_h);
  asr::BlockTables tables;
  AlignedVector<float> scratch_re;
  AlignedVector<float> scratch_im;

  for (const auto& block : blocks) {
    const geometry::Vec3 centre = grid.position_f(
        static_cast<double>(block.x0) +
            0.5 * static_cast<double>(block.width - 1),
        static_cast<double>(block.y0) +
            0.5 * static_cast<double>(block.height - 1));
    const Index len_l = x_inner ? block.width : block.height;
    const Index len_m = x_inner ? block.height : block.width;
    const Index bx = block.x0 - region.x0;
    const Index by = block.y0 - region.y0;
    scratch_re.assign(static_cast<std::size_t>(len_l * len_m), 0.0f);
    scratch_im.assign(static_cast<std::size_t>(len_l * len_m), 0.0f);

    for (Index p = pulse_begin; p < pulse_end; ++p) {
      const auto& meta = history.meta(p);
      const asr::Quadratic2D q =
          block_range_quadratic(centre, meta.position, grid.spacing(), order);
      asr::build_block_tables_fast(q, meta.start_range_m,
                                   history.bin_spacing(), two_pi_k, len_l,
                                   len_m, tables);
      ops->rows_aos(tables, history.pulse(p).data(), samples,
                    scratch_re.data(), scratch_im.data(), len_l, len_l, len_m,
                    KernelVariant::kGather);
    }

    // Flush the block scratch into the thread tile under the (l, m) ->
    // (x, y) mapping of the chosen order.
    if (x_inner) {
      for (Index m = 0; m < len_m; ++m) {
        float* dst_re = out.row_re(by + m) + bx;
        float* dst_im = out.row_im(by + m) + bx;
        const float* src_re = scratch_re.data() + m * len_l;
        const float* src_im = scratch_im.data() + m * len_l;
        for (Index l = 0; l < len_l; ++l) {
          dst_re[l] += src_re[l];
          dst_im[l] += src_im[l];
        }
      }
    } else {
      for (Index m = 0; m < len_m; ++m) {
        const float* src_re = scratch_re.data() + m * len_l;
        const float* src_im = scratch_im.data() + m * len_l;
        for (Index l = 0; l < len_l; ++l) {
          out.row_re(by + l)[bx + m] += src_re[l];
          out.row_im(by + l)[bx + m] += src_im[l];
        }
      }
    }
  }
}

void asr_plan_sweep_simd(const asr::BlockTables& tables, const CFloat* in,
                         Index samples, bool x_inner, Index bx, Index by,
                         Index len_l, Index len_m, SoaTile& out, SimdIsa isa,
                         KernelVariant variant, AlignedVector<float>& ws_re,
                         AlignedVector<float>& ws_im, bool zero_ws,
                         bool flush_ws) {
  const detail::AsrIsaOps* ops = ops_for(asr_resolve_isa(isa));
  if (ops == nullptr) {
    // Scalar resolution: bit-identical to the plan executor's scalar path.
    asr_sweep_block(tables, in, samples, x_inner, bx, by, len_l, len_m, out);
    return;
  }
  // With fewer than two samples no bin is interpolable (every lane is
  // masked); returning early also keeps the shuffle variant's clamped
  // dummy loads in bounds. Safe under run batching: `samples` is constant
  // across a history, so the whole run bails out and nothing is flushed.
  if (samples < 2) return;
  if (x_inner) {
    // l walks x: rows are contiguous in the tile, so accumulate the vector
    // rows in place with the tile width as the row pitch.
    ops->rows_aos(tables, in, samples, out.row_re(by) + bx,
                  out.row_im(by) + bx, out.width(), len_l, len_m, variant);
    return;
  }
  // l walks y: accumulate l-contiguous rows into the workspace, and flush
  // transposed at the end of the run (same structure as
  // backproject_asr_simd's once-per-block scratch).
  if (zero_ws) {
    ws_re.assign(static_cast<std::size_t>(len_l * len_m), 0.0f);
    ws_im.assign(static_cast<std::size_t>(len_l * len_m), 0.0f);
  }
  ops->rows_aos(tables, in, samples, ws_re.data(), ws_im.data(), len_l,
                len_l, len_m, variant);
  if (!flush_ws) return;
  for (Index m = 0; m < len_m; ++m) {
    const float* src_re = ws_re.data() + m * len_l;
    const float* src_im = ws_im.data() + m * len_l;
    for (Index l = 0; l < len_l; ++l) {
      out.row_re(by + l)[bx + m] += src_re[l];
      out.row_im(by + l)[bx + m] += src_im[l];
    }
  }
}

}  // namespace sarbp::bp
