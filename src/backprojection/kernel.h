// Backprojection kernels.
//
// Every kernel accumulates the contribution of pulses
// [pulse_begin, pulse_end) onto the pixels of `region`:
//
//   Out[x, y] += interp(In_p, (|p(x,y) - p0_p| - r0_p)/dr)
//                * exp(i * 2*pi*k * |p(x,y) - p0_p|)
//
// The variants differ in how the sqrt / sin / cos / interpolation are
// computed — they are the experimental units of the paper's evaluation:
//
//  - ref:          everything in double precision; ground truth for SNR.
//  - baseline:     the paper's pre-ASR production path — double-precision
//                  range and argument reduction, single-precision
//                  polynomial sin/cos and interpolation (Fig. 7 "before").
//  - baseline all-float: range in single precision — reproduces the 12 dB
//                  accuracy collapse quoted in §5.2.1 / Fig. 8.
//  - asr_scalar:   approximate strength reduction (Fig. 3(b)), portable.
//  - asr_simd:     ASR vectorized with AVX2/AVX-512 gathers over the AoS
//                  pulse data, recurrence stepped by the SIMD width (§4.4).
//
// Float kernels write into a SoaTile covering exactly `region` (tile-local
// coordinates); the driver owns placement and reduction.
#pragma once

#include "asr/tables.h"
#include "backprojection/soa_tile.h"
#include "common/aligned.h"
#include "common/grid2d.h"
#include "common/region.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "geometry/wavefront.h"
#include "sim/phase_history.h"

namespace sarbp::bp {

enum class KernelKind {
  kRefDouble,
  kBaseline,
  kBaselineAllFloat,
  kAsrScalar,
  kAsrSimd,
};

/// Human-readable kernel name for benchmark output.
const char* kernel_name(KernelKind kind);

/// Full-double reference (accumulates into a double-precision image).
void backproject_ref(const sim::PhaseHistory& history,
                     const geometry::ImageGrid& grid, const Region& region,
                     Index pulse_begin, Index pulse_end,
                     Grid2D<CDouble>& out);

/// Paper baseline (Fig. 3(a)): mixed precision, polynomial trig.
/// `all_float` switches the range/reduction computation to single
/// precision (the Fig. 8 12 dB data point).
void backproject_baseline(const sim::PhaseHistory& history,
                          const geometry::ImageGrid& grid,
                          const Region& region, Index pulse_begin,
                          Index pulse_end, bool all_float,
                          geometry::LoopOrder order, SoaTile& out);

/// ASR kernel, portable scalar code (Fig. 3(b)).
/// block_w/block_h: ASR approximation block size (accuracy knob, §3.5).
void backproject_asr_scalar(const sim::PhaseHistory& history,
                            const geometry::ImageGrid& grid,
                            const Region& region, Index pulse_begin,
                            Index pulse_end, Index block_w, Index block_h,
                            geometry::LoopOrder order, SoaTile& out);

/// Which vector ISA the ASR SIMD kernel should run. The per-ISA kernel
/// translation units (kernel_asr_avx2.cpp / kernel_asr_avx512.cpp) are
/// compiled with their own explicit -march and linked unconditionally;
/// selection happens at runtime from host cpuid (src/common/cpu.h), so one
/// binary carries every width — no more compile-time-only dispatch.
enum class SimdIsa {
  kAuto,    ///< widest usable ISA on this host (the default)
  kScalar,  ///< force the portable scalar sweep
  kAvx2,    ///< force the 8-lane AVX2 TU (e.g. AVX2-on-AVX-512-host tests)
  kAvx512,  ///< force the 16-lane AVX-512 TU
};
const char* simd_isa_name(SimdIsa isa);

/// Inner-loop implementation variant of the fused plan-replay sweep — the
/// §4.4 ablation knobs benchmarked in bench/ablation_vectorization:
///  - kGather: hardware gathers of the interleaved In[bin], In[bin+1]
///    pairs straight from the AoS pulse buffer; FMA arithmetic. Default.
///  - kShuffleTranspose: one 16-byte contiguous load per lane (the four
///    floats re0,im0,re1,im1 are adjacent in AoS) + an in-register
///    transpose instead of gathers. Bit-identical to kGather: same
///    arithmetic in the same order, only the load mechanism differs.
enum class KernelVariant { kAuto, kGather, kShuffleTranspose };
const char* kernel_variant_name(KernelVariant variant);

/// True when `isa` can run here: its kernel TU is linked in AND host cpuid
/// reports support. kScalar and kAuto are always available.
bool asr_isa_available(SimdIsa isa);

/// kAuto -> the widest usable ISA (kScalar when none). A concrete request
/// must be available — fails with a clear PreconditionError otherwise
/// (never SIGILL). First use also verifies the build's baseline ISA
/// against the host (cpu.h require_compiled_isa_supported).
SimdIsa asr_resolve_isa(SimdIsa requested);

/// True when a vector (AVX2 or AVX-512) ASR kernel is usable on this host.
bool asr_simd_available();
/// Lane count of the widest usable SIMD kernel (16, 8, or 1 when scalar).
int asr_simd_width();

/// Maps a requested kernel to the one that will actually run on this
/// build: kAsrSimd degrades to kAsrScalar when no vector ISA was compiled
/// in (kSimdWidth == 1), so drivers never dispatch the degenerate 1-lane
/// path. Every other kind maps to itself.
[[nodiscard]] inline KernelKind resolve_kernel(KernelKind requested) {
  if (requested == KernelKind::kAsrSimd && !asr_simd_available()) {
    return KernelKind::kAsrScalar;
  }
  return requested;
}

/// ASR kernel, SIMD: builds each block's tables on the fly and runs the
/// same gather row kernel as the plan replay over the AoS pulse buffer.
/// Falls back to the scalar kernel when `isa` resolves to kScalar.
void backproject_asr_simd(const sim::PhaseHistory& history,
                          const geometry::ImageGrid& grid,
                          const Region& region, Index pulse_begin,
                          Index pulse_end, Index block_w, Index block_h,
                          geometry::LoopOrder order, SoaTile& out,
                          SimdIsa isa = SimdIsa::kAuto);

/// Fused plan-replay sweep: one (block, pulse) pass of the ASR inner loop
/// reading *prebuilt* tables (the BlockTables stay resident across the
/// whole sweep) against the AoS pulse buffer — the SIMD counterpart of
/// kernel_asr_block.h's asr_sweep_block, sharing its signature so the
/// service's plan executor can swap between them per backend. Under
/// x_inner the vector rows accumulate straight into the tile (no scratch
/// round-trip); under y_inner they accumulate into the caller-owned
/// ws_re/ws_im workspace (resized here) and flush transposed. kScalar
/// resolution degrades to asr_sweep_block (bit-identical to the scalar
/// plan path). `variant` selects the inner-loop implementation; kAuto =
/// kGather.
///
/// zero_ws / flush_ws let a caller replaying many pulses of one block
/// amortize the y_inner workspace over a run of consecutive same-geometry
/// calls (same block, same orientation): pass zero_ws only on the first
/// call of the run and flush_ws only on the last, and the intermediate
/// calls keep accumulating into the still-resident workspace — the fused
/// counterpart of backproject_asr_simd's once-per-block scratch. The
/// defaults (both true) keep the standalone one-call semantics. Both flags
/// are ignored under x_inner and under kScalar resolution, where nothing
/// is ever buffered.
void asr_plan_sweep_simd(const asr::BlockTables& tables, const CFloat* in,
                         Index samples, bool x_inner, Index bx, Index by,
                         Index len_l, Index len_m, SoaTile& out, SimdIsa isa,
                         KernelVariant variant, AlignedVector<float>& ws_re,
                         AlignedVector<float>& ws_im, bool zero_ws = true,
                         bool flush_ws = true);

/// FLOPs of one backprojection (pixel, pulse) pair in the ASR inner loop —
/// the paper's §5.2.2 count used for efficiency figures.
inline constexpr double kFlopsPerBackprojection = 38.0;

}  // namespace sarbp::bp
