// Strength-reduced per-block lookup tables (paper Fig. 3(b) line 02:
// "pre-compute A, B, C, Phi, Psi and Gamma").
//
// After the quadratic approximation r~(l, m) (quadratic.h), both inner-loop
// math functions collapse to table reads plus a recurrence:
//
//   bin(l, m) = A[l] + B[m] + l * C[m]                       (pure FMA)
//   arg(l, m) = Phi[l] * Psi[m] * gamma,   gamma *= Gamma[m] (complex muls)
//
// with l, m the 0-based indices inside the block. The centred-expansion
// bookkeeping (paper footnote 4) is folded into the tables themselves:
// A/Phi absorb the block-centre offset along l, B/Psi absorb it along m and
// the cross-term's l-offset contribution.
//
// The tables are *computed in double* — including the mod-2*pi reduction of
// the huge 2*pi*k*f0 constant phase — and *stored in float*, which is what
// lets the inner loop run entirely in single precision at full accuracy
// (paper §3.5, §5.2.1).
//
// Storage: the kernels read a table set through BlockTables, a view of nine
// float arrays. Who owns the floats is the caller's business: a
// FormationPlan keeps all of a plan's (block, pulse) sets in one arena
// (service/plan_cache.h), and the per-block kernels reuse one
// TableWorkspace. build_block_tables_fast fills both.
#pragma once

#include <cstddef>
#include <type_traits>

#include "asr/quadratic.h"
#include "common/aligned.h"
#include "common/types.h"

namespace sarbp::asr {

/// One (block, pulse) table set: a non-owning, trivially copyable view of
/// the nine arrays plus their extents. The kernels (asr_sweep_block, the
/// SIMD row kernels, asr_plan_sweep_simd) and exec::PlanView read tables
/// only through this view, whoever owns the floats: a FormationPlan's
/// arena (service/plan_cache.h) or a TableWorkspace.
///
/// Layout: carve_tables places the nine arrays back to back, each padded
/// to a 64-byte line, in the order bin_a, phi_re, phi_im (L each), then
/// bin_b, bin_c, psi_re, psi_im, gam_re, gam_im (M each). The padding is
/// never written or read.
struct BlockTables {
  Index width = 0;   ///< L: block extent along l (the inner/x loop)
  Index height = 0;  ///< M: block extent along m (the outer/y loop)

  float* bin_a = nullptr;  ///< [L]
  float* bin_b = nullptr;  ///< [M]
  float* bin_c = nullptr;  ///< [M]

  float* phi_re = nullptr;  ///< [L]
  float* phi_im = nullptr;  ///< [L]
  float* psi_re = nullptr;  ///< [M]
  float* psi_im = nullptr;  ///< [M]
  float* gam_re = nullptr;  ///< [M] step factor Gamma[m]
  float* gam_im = nullptr;  ///< [M]
};
static_assert(std::is_trivially_copyable_v<BlockTables>);

/// Floats one width x height table set occupies under carve_tables.
[[nodiscard]] std::size_t table_floats(Index width, Index height);

/// Lays a width x height table set over `base`, which must be 64-byte
/// aligned and hold table_floats(width, height) floats.
[[nodiscard]] BlockTables carve_tables(float* base, Index width, Index height);

/// Owning table storage for the on-the-fly users (the ASR kernels'
/// per-block loops, streaming, the breakdown, the beamformer): one
/// allocation that only grows, so reuse across blocks and pulses amortizes
/// it away.
class TableWorkspace {
 public:
  /// Views width x height tables over the workspace storage; the view
  /// stays valid until the next resize.
  const BlockTables& resize(Index width, Index height);

 private:
  AlignedVector<float> storage_;
  BlockTables view_;
};

/// Fills `tables` (its width x height arrays) for one (block, pulse) pair.
///   q:            range quadratic about the block centre (centred indices)
///   start_range:  r0 — slant range of range bin 0 for this pulse
///   bin_spacing:  dr
///   two_pi_k:     2*pi*k with k the carrier wavenumber factor
void build_block_tables(const Quadratic2D& q, double start_range,
                        double bin_spacing, double two_pi_k,
                        const BlockTables& tables);

/// Fast table construction (paper §4.4: "it is important to also vectorize
/// the pre-computation step"): the phases of Phi/Psi/Gamma are quadratic
/// (or linear) in the index, so each table follows a two-level complex
/// recurrence — U[l+1] = U[l]*V[l], V[l+1] = V[l]*W — seeded by three exact
/// complex exponentials per axis. All per-entry sin/cos calls disappear;
/// the double-precision recurrence (with periodic renormalization) holds
/// the error at the float-storage floor for any practical block size.
/// Produces tables interchangeable with build_block_tables. It fills both
/// a plan's arena and every workspace, so the two hold byte-identical
/// tables for the same (block, pulse).
void build_block_tables_fast(const Quadratic2D& q, double start_range,
                             double bin_spacing, double two_pi_k,
                             const BlockTables& tables);

/// Reconstructs bin(l, m) from the tables — the scalar identity the SIMD
/// kernels must match; used by tests.
[[nodiscard]] inline float table_bin(const BlockTables& t, Index l, Index m) {
  return t.bin_a[static_cast<std::size_t>(l)] +
         t.bin_b[static_cast<std::size_t>(m)] +
         static_cast<float>(l) * t.bin_c[static_cast<std::size_t>(m)];
}

}  // namespace sarbp::asr
