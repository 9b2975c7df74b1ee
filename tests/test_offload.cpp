// Offload-model tests: the device specs and the modeled PCIe time. The
// §5.3 split and the Table 3 ratios run on the formation engine and are
// tested in test_backends.cpp.
#include <gtest/gtest.h>

#include "common/check.h"
#include "offload/device.h"

namespace sarbp::offload {
namespace {

TEST(Device, PaperSpecsEncodeTable2And3) {
  const DeviceSpec xeon = xeon_e5_2670_dual();
  EXPECT_TRUE(xeon.is_host);
  EXPECT_DOUBLE_EQ(xeon.peak_gflops, 660.0);
  EXPECT_NEAR(xeon.effective_gflops(), 277.2, 0.1);
  const DeviceSpec knc = knights_corner();
  EXPECT_FALSE(knc.is_host);
  EXPECT_DOUBLE_EQ(knc.peak_gflops, 1920.0);
  EXPECT_NEAR(knc.effective_gflops(), 537.6, 0.1);
  // Table 3: one KNC ~ 1.9x a dual-socket Xeon at backprojection.
  EXPECT_NEAR(knc.effective_gflops() / xeon.effective_gflops(), 1.9, 0.1);
  // §5.3: 6 GB/s realized PCIe; host executors move nothing.
  EXPECT_NEAR(modeled_transfer_seconds(knc, 150e6), 0.025, 1e-12);
  EXPECT_DOUBLE_EQ(modeled_transfer_seconds(xeon, 150e6), 0.0);
}

TEST(Device, ValidateRejectsNonsense) {
  DeviceSpec bad = knights_corner();
  bad.flop_efficiency = 0.0;
  EXPECT_THROW(bad.validate(), PreconditionError);
  bad = knights_corner();
  bad.pcie_gbps = 0.0;
  EXPECT_THROW(bad.validate(), PreconditionError);
}

}  // namespace
}  // namespace sarbp::offload
