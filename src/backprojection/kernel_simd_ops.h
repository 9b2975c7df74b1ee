// Private seam between the ASR SIMD dispatcher (kernel_asr_simd.cpp) and
// the per-ISA kernel translation units (kernel_asr_avx2.cpp with
// -march=x86-64-v3, kernel_asr_avx512.cpp with -march=x86-64-v4). The
// dispatcher resolves host cpuid once and calls through these tables; the
// TUs never run unless selected, so a binary carrying AVX-512 code starts
// fine on an AVX2-only host.
//
// Everything here must stay ISA-neutral: this header is included by TUs
// compiled at three different -march levels, so no intrinsics and no
// vector types — function-pointer tables and plain scalar helpers only.
#pragma once

#include "asr/tables.h"
#include "backprojection/kernel.h"
#include "common/types.h"

namespace sarbp::bp::detail {

/// One ISA's row kernel. `acc_re`/`acc_im` are planar accumulation
/// buffers whose row m starts at `acc + m * acc_pitch` (pitch = len_l for
/// a block-local scratch, = tile width for fused in-place accumulation).
struct AsrIsaOps {
  int width;         ///< f32 lanes (8 or 16)
  const char* name;  ///< "avx2" / "avx512"
  /// Rows of one (block, pulse) pass: samples straight from the AoS pulse
  /// buffer, inner loop selected by `variant`. Both drivers call it.
  void (*rows_aos)(const asr::BlockTables& t, const CFloat* in, Index samples,
                   float* acc_re, float* acc_im, Index acc_pitch, Index len_l,
                   Index len_m, KernelVariant variant);
};

#if SARBP_HAVE_KERNEL_AVX2
const AsrIsaOps& asr_isa_ops_avx2();
#endif
#if SARBP_HAVE_KERNEL_AVX512
const AsrIsaOps& asr_isa_ops_avx512();
#endif

/// Per-row vector state for the W-step gamma recurrence (§4.4): lane i
/// carries Gamma^i and the whole vector advances by Gamma^W per chunk.
struct GammaLanes {
  alignas(64) float re[16];
  alignas(64) float im[16];
  float step_re;
  float step_im;
};

// `static`, not `inline`: each per-ISA TU must keep its *own* copy
// compiled at its own -march. A vague-linkage inline would be emitted once
// and COMDAT-merged across TUs, and if the linker kept the -march=x86-64-v4
// copy (GCC can auto-vectorize this loop with AVX-512) the AVX2 dispatch
// path would execute AVX-512 instructions.
[[maybe_unused]] static GammaLanes make_gamma_lanes(float gam_r, float gam_i,
                                                    int width) {
  GammaLanes lanes{};
  float gr = 1.0f;
  float gi = 0.0f;
  for (int lane = 0; lane < width; ++lane) {
    lanes.re[lane] = gr;
    lanes.im[lane] = gi;
    const float ngr = gr * gam_r - gi * gam_i;
    gi = gr * gam_i + gi * gam_r;
    gr = ngr;
  }
  lanes.step_re = gr;  // Gamma^W
  lanes.step_im = gi;
  return lanes;
}

}  // namespace sarbp::bp::detail
