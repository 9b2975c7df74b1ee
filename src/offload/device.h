// Compute-device descriptors for the offload model.
//
// We have no Xeon Phi hardware (DESIGN.md §2): coprocessors are modeled by
// their paper-reported capability — peak single-precision GFLOP/s and the
// backprojection FLOP efficiency of Table 3 — while the actual arithmetic
// runs on the host. The model is anchored to the *measured* host kernel
// rate, so simulated device times scale with reality on this machine.
#pragma once

#include <string>

#include "common/check.h"

namespace sarbp::offload {

struct DeviceSpec {
  std::string name;
  double peak_gflops = 0.0;      ///< ideal single-precision peak (Table 2)
  double flop_efficiency = 0.0;  ///< backprojection efficiency (Table 3)
  double pcie_gbps = 0.0;        ///< realized PCIe bandwidth, GB/s (§5.3)
  bool is_host = false;

  /// Effective backprojection compute rate in GFLOP/s.
  [[nodiscard]] double effective_gflops() const {
    return peak_gflops * flop_efficiency;
  }

  void validate() const {
    sarbp::ensure(peak_gflops > 0, "DeviceSpec: peak must be positive");
    sarbp::ensure(flop_efficiency > 0 && flop_efficiency <= 1,
                  "DeviceSpec: efficiency in (0, 1]");
    sarbp::ensure(is_host || pcie_gbps > 0,
                  "DeviceSpec: coprocessors need PCIe bandwidth");
  }
};

/// Dual-socket Intel Xeon E5-2670 (Table 2): 660 GFLOP/s peak, 42%
/// backprojection efficiency (Table 3).
DeviceSpec xeon_e5_2670_dual();

/// Knights Corner evaluation card (Table 2): 1,920 GFLOP/s peak, 28%
/// efficiency, 6 GB/s realized PCIe (§5.3).
DeviceSpec knights_corner();

/// Simulated executor time for arithmetic that physically took
/// `measured_host_seconds` on this machine: rescaled by the ratio of the
/// host model's effective rate to the device's (DESIGN.md §2). The exec
/// layer's OffloadSimBackend reports its sweeps on this clock.
[[nodiscard]] double simulated_compute_seconds(const DeviceSpec& device,
                                               const DeviceSpec& host_model,
                                               double measured_host_seconds);

/// Modeled PCIe time to move `bytes` over the device link (§5.3's
/// ~150 MB / 6 GB/s -> 0.03 s for the 3K case). Zero for host executors.
/// The sweeps carry no wire time; whole-frame accounting (the Table 3
/// bench) adds it, overlapped as max(compute, transfer).
[[nodiscard]] double modeled_transfer_seconds(const DeviceSpec& device,
                                              double bytes);

}  // namespace sarbp::offload
