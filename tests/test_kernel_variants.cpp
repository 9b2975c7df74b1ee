// Runtime ISA dispatch and kernel-variant parity for the ASR SIMD kernel:
// every (ISA, variant) pair runs the *same* formation plan through the
// backend sweep, so differences can only come from the inner loop.
//
// Parity contract (kernel.h):
//  - kGather vs kShuffleTranspose: bit-identical (same arithmetic, same
//    order; only the load mechanism differs).
//  - scalar vs vector, AVX2 vs AVX-512: different rounding and/or
//    reduction widths, so parity is at SNR level (> 70 dB).
//  - forcing an unavailable ISA fails with PreconditionError, never SIGILL.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "backprojection/kernel.h"
#include "backprojection/soa_tile.h"
#include "common/check.h"
#include "common/grid2d.h"
#include "common/snr.h"
#include "exec/tile_backend.h"
#include "service/plan_cache.h"
#include "test_helpers.h"

namespace sarbp {
namespace {

constexpr Index kImage = 96;
constexpr Index kPulses = 24;
constexpr Index kBlock = 32;

class KernelVariantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testing::ScenarioConfig cfg;
    cfg.image = kImage;
    cfg.pulses = kPulses;
    scenario_ = new testing::SmallScenario(testing::make_scenario(cfg));
    region_ = Region{0, 0, kImage, kImage};
    plan_ = service::build_formation_plan(scenario_->grid, region_, kBlock,
                                          kBlock, scenario_->history);
  }

  static void TearDownTestSuite() {
    plan_.reset();
    delete scenario_;
    scenario_ = nullptr;
  }

  static exec::PlanView plan_view() {
    exec::PlanView view;
    view.blocks = plan_->blocks.data();
    view.num_blocks = static_cast<Index>(plan_->blocks.size());
    view.pulse_order = plan_->pulse_order.data();
    view.num_pulses = plan_->num_pulses();
    view.tables = plan_->tables.data();
    view.region_x0 = region_.x0;
    view.region_y0 = region_.y0;
    return view;
  }

  /// Sweeps the whole plan through one backend — the routed service path.
  static bp::SoaTile run_backend(const exec::BackendSpec& spec) {
    const auto backend = exec::make_backend(spec, 0.5, nullptr);
    const exec::PlanView view = plan_view();
    bp::SoaTile tile(region_.width, region_.height);
    for (Index b = 0; b < view.num_blocks; ++b) {
      backend->sweep_block(view, scenario_->history, b, 0, kPulses, tile);
    }
    return tile;
  }

  static bp::SoaTile run_simd_plan(bp::SimdIsa isa, bp::KernelVariant variant) {
    exec::BackendSpec spec;
    spec.kind = exec::BackendSpec::Kind::kHostSimd;
    spec.isa = isa;
    spec.variant = variant;
    return run_backend(spec);
  }

  static bp::SoaTile run_scalar_plan() {
    exec::BackendSpec spec;
    spec.kind = exec::BackendSpec::Kind::kHostScalar;
    return run_backend(spec);
  }

  static Grid2D<CFloat> to_grid(const bp::SoaTile& tile) {
    Grid2D<CFloat> out(tile.width(), tile.height());
    for (Index y = 0; y < tile.height(); ++y) {
      for (Index x = 0; x < tile.width(); ++x) {
        out.at(x, y) = CFloat{tile.row_re(y)[x], tile.row_im(y)[x]};
      }
    }
    return out;
  }

  static bool bit_identical(const bp::SoaTile& a, const bp::SoaTile& b) {
    for (Index y = 0; y < a.height(); ++y) {
      if (std::memcmp(a.row_re(y), b.row_re(y),
                      sizeof(float) * static_cast<std::size_t>(a.width())) !=
              0 ||
          std::memcmp(a.row_im(y), b.row_im(y),
                      sizeof(float) * static_cast<std::size_t>(a.width())) !=
              0) {
        return false;
      }
    }
    return true;
  }

  static testing::SmallScenario* scenario_;
  static Region region_;
  static std::shared_ptr<const service::FormationPlan> plan_;
};

testing::SmallScenario* KernelVariantTest::scenario_ = nullptr;
Region KernelVariantTest::region_;
std::shared_ptr<const service::FormationPlan> KernelVariantTest::plan_;

TEST_F(KernelVariantTest, AvailabilityInvariants) {
  EXPECT_EQ(bp::asr_simd_available(), bp::asr_simd_width() > 1);
  EXPECT_TRUE(bp::asr_isa_available(bp::SimdIsa::kScalar));
  EXPECT_TRUE(bp::asr_isa_available(bp::SimdIsa::kAuto));
  // kAuto resolves to the widest usable ISA, consistent with the width.
  const bp::SimdIsa resolved = bp::asr_resolve_isa(bp::SimdIsa::kAuto);
  switch (resolved) {
    case bp::SimdIsa::kAvx512: EXPECT_EQ(bp::asr_simd_width(), 16); break;
    case bp::SimdIsa::kAvx2: EXPECT_EQ(bp::asr_simd_width(), 8); break;
    case bp::SimdIsa::kScalar: EXPECT_EQ(bp::asr_simd_width(), 1); break;
    case bp::SimdIsa::kAuto: FAIL() << "kAuto must resolve to a concrete ISA";
  }
  // An AVX-512 host can always also run the narrower AVX2 TU.
  if (resolved == bp::SimdIsa::kAvx512) {
    EXPECT_TRUE(bp::asr_isa_available(bp::SimdIsa::kAvx2));
  }
}

TEST_F(KernelVariantTest, ForcingUnavailableIsaFailsCleanly) {
  // On hosts (or builds) missing an ISA the resolve must throw a clear
  // error — never dispatch into illegal instructions.
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (bp::asr_isa_available(isa)) continue;
    EXPECT_THROW((void)bp::asr_resolve_isa(isa), PreconditionError);
  }
  SUCCEED();
}

TEST_F(KernelVariantTest, GatherVsShuffleBitIdentical) {
  // Same arithmetic in the same order; only the sample-load mechanism
  // differs. Checked per usable vector ISA.
  bool checked = false;
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (!bp::asr_isa_available(isa)) continue;
    const bp::SoaTile gather =
        run_simd_plan(isa, bp::KernelVariant::kGather);
    const bp::SoaTile shuffle =
        run_simd_plan(isa, bp::KernelVariant::kShuffleTranspose);
    EXPECT_TRUE(bit_identical(gather, shuffle))
        << "gather vs shuffle-transpose diverged under "
        << bp::simd_isa_name(isa);
    checked = true;
  }
  if (!checked) GTEST_SKIP() << "no vector ISA usable on this host";
}

TEST_F(KernelVariantTest, VectorIsasMatchScalarAtSnrLevel) {
  // Vector reduction order differs from scalar (lane-parallel recurrence,
  // Gamma^W stepping), so parity is at SNR level, not bitwise.
  const Grid2D<CFloat> scalar = to_grid(run_scalar_plan());
  bool checked = false;
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (!bp::asr_isa_available(isa)) continue;
    for (const bp::KernelVariant variant :
         {bp::KernelVariant::kGather, bp::KernelVariant::kShuffleTranspose}) {
      const Grid2D<CFloat> vec = to_grid(run_simd_plan(isa, variant));
      EXPECT_GT(snr_db(vec, scalar), 70.0)
          << bp::simd_isa_name(isa) << "/"
          << bp::kernel_variant_name(variant);
      checked = true;
    }
  }
  if (!checked) GTEST_SKIP() << "no vector ISA usable on this host";
}

TEST_F(KernelVariantTest, ForcedAvx2OnWiderHostMatchesAuto) {
  // The narrow-TU-on-wide-host case: an AVX-512 machine forced down to the
  // 8-lane AVX2 kernel still produces an equivalent image. The reduction
  // widths differ (8 vs 16 lanes), so parity is SNR-level.
  if (bp::asr_resolve_isa(bp::SimdIsa::kAuto) != bp::SimdIsa::kAvx512) {
    GTEST_SKIP() << "host is not AVX-512";
  }
  const Grid2D<CFloat> wide =
      to_grid(run_simd_plan(bp::SimdIsa::kAvx512, bp::KernelVariant::kGather));
  const Grid2D<CFloat> narrow =
      to_grid(run_simd_plan(bp::SimdIsa::kAvx2, bp::KernelVariant::kGather));
  EXPECT_GT(snr_db(narrow, wide), 70.0);
}

TEST_F(KernelVariantTest, StreamingKernelHonoursForcedIsa) {
  // The on-the-fly (non-plan) entry point takes the same ISA override; a
  // forced narrow ISA must agree with the on-the-fly scalar kernel.
  bp::SoaTile scalar(kImage, kImage);
  bp::backproject_asr_scalar(scenario_->history, scenario_->grid, region_, 0,
                             kPulses, kBlock, kBlock,
                             geometry::LoopOrder::kXInner, scalar);
  bool checked = false;
  for (const bp::SimdIsa isa : {bp::SimdIsa::kAvx2, bp::SimdIsa::kAvx512}) {
    if (!bp::asr_isa_available(isa)) continue;
    bp::SoaTile simd(kImage, kImage);
    bp::backproject_asr_simd(scenario_->history, scenario_->grid, region_, 0,
                             kPulses, kBlock, kBlock,
                             geometry::LoopOrder::kXInner, simd, isa);
    EXPECT_GT(snr_db(to_grid(simd), to_grid(scalar)), 70.0)
        << bp::simd_isa_name(isa);
    checked = true;
  }
  if (!checked) GTEST_SKIP() << "no vector ISA usable on this host";
}

}  // namespace
}  // namespace sarbp
