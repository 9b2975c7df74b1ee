// Range-compressed phase history: the `In` array of the paper's Fig. 3,
// one compressed range profile per pulse plus the per-pulse metadata
// (recorded platform position, start range) backprojection needs.
//
// Samples are stored once, as AoS (interleaved re/im). The paper (§4.4)
// keeps SoA planes for the gather-based Xeon Phi kernel; here both vector
// load policies read AoS directly: one 128-bit load of In[bin], In[bin+1]
// plus a shuffle-transpose, or four gathers at a two-float stride. An
// in-place edit of pulse(p) therefore reaches every kernel; there is no
// second copy to keep in step. bench/ablation_layout still measures AoS
// against SoA.
#pragma once

#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"
#include "common/types.h"
#include "geometry/vec3.h"

namespace sarbp::sim {

struct PulseMeta {
  geometry::Vec3 position;  ///< recorded (INS) platform position
  double start_range_m = 0.0;  ///< slant range of bin 0 (the paper's r0)
  double time_s = 0.0;
};

class PhaseHistory {
 public:
  PhaseHistory() = default;

  /// `bin_spacing_m`: the paper's dr; `wavenumber`: the paper's k (2 f0/c).
  PhaseHistory(Index num_pulses, Index samples_per_pulse,
               double bin_spacing_m, double wavenumber);

  [[nodiscard]] Index num_pulses() const { return num_pulses_; }
  [[nodiscard]] Index samples_per_pulse() const { return samples_; }
  [[nodiscard]] double bin_spacing() const { return bin_spacing_; }
  [[nodiscard]] double wavenumber() const { return wavenumber_; }

  [[nodiscard]] std::span<CFloat> pulse(Index p) {
    return {aos_.data() + p * samples_, static_cast<std::size_t>(samples_)};
  }
  [[nodiscard]] std::span<const CFloat> pulse(Index p) const {
    return {aos_.data() + p * samples_, static_cast<std::size_t>(samples_)};
  }

  [[nodiscard]] PulseMeta& meta(Index p) { return meta_[static_cast<std::size_t>(p)]; }
  [[nodiscard]] const PulseMeta& meta(Index p) const {
    return meta_[static_cast<std::size_t>(p)];
  }

  /// No-op: samples have no second layout to build. Kept because the
  /// benchmark harness (perfbench/src/inputs.cpp) still calls it.
  void build_soa() {}

  /// Total AoS payload in bytes (PCIe-transfer accounting).
  [[nodiscard]] std::size_t payload_bytes() const {
    return aos_.size() * sizeof(CFloat);
  }

  /// FFT-based range upsampling: returns a history with `factor` x the
  /// samples per pulse at bin spacing dr/factor (band-limited
  /// interpolation via spectral zero-padding). Used by the hierarchical
  /// backprojection front end, where near-critically-sampled profiles make
  /// direct resampling lossy.
  [[nodiscard]] PhaseHistory upsampled(Index factor) const;

 private:
  Index num_pulses_ = 0;
  Index samples_ = 0;
  double bin_spacing_ = 1.0;
  double wavenumber_ = 0.0;
  AlignedVector<CFloat> aos_;
  std::vector<PulseMeta> meta_;
};

}  // namespace sarbp::sim
