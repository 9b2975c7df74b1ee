#include "exec/tile_backend.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "backprojection/kernel_asr_block.h"
#include "common/aligned.h"
#include "common/check.h"

namespace sarbp::exec {

TileBackend::TileBackend(std::string name, double rate_prior,
                         double rate_smoothing, obs::Registry* metrics)
    : name_(std::move(name)),
      rate_prior_(rate_prior),
      rate_smoothing_(rate_smoothing) {
  ensure(rate_prior_ > 0, "TileBackend: rate prior must be positive");
  ensure(rate_smoothing_ > 0 && rate_smoothing_ <= 1,
         "TileBackend: rate smoothing in (0, 1]");
  if constexpr (obs::kEnabled) {
    auto& reg = metrics != nullptr ? *metrics : obs::registry();
    sweeps_ = &reg.counter("backend." + name_ + ".sweeps");
    rate_gauge_ = &reg.gauge("backend." + name_ + ".rate_bp_s");
    split_gauge_ = &reg.gauge("backend." + name_ + ".split_permille");
    sweep_s_ = &reg.histogram("backend." + name_ + ".sweep_s");
  }
}

void TileBackend::record(double backprojections, double measured_seconds) {
  const double simulated = simulated_seconds(measured_seconds);
  if (simulated <= 0.0 || backprojections <= 0.0) return;
  const double observed = backprojections / simulated;
  double smoothed;
  {
    MutexLock lock(mutex_);
    rate_ = rate_ <= 0.0 ? observed
                         : rate_smoothing_ * observed +
                               (1.0 - rate_smoothing_) * rate_;
    smoothed = rate_;
  }
  if (sweeps_) sweeps_->add();
  if (sweep_s_) sweep_s_->record(simulated);
  if (rate_gauge_) rate_gauge_->set(static_cast<std::int64_t>(smoothed));
}

double TileBackend::observed_rate() const {
  MutexLock lock(mutex_);
  return rate_;
}

void TileBackend::set_split_gauge(double fraction) {
  if (split_gauge_) {
    split_gauge_->set(static_cast<std::int64_t>(std::llround(fraction * 1000)));
  }
}

namespace {

/// Pulse loop shared by the concrete backends: per-pulse loop order and
/// block-local geometry, differing only in the per-(block, pulse) sweep.
/// run_first/run_last bracket maximal runs of consecutive pulses with the
/// same loop order — the SIMD backend amortizes its y_inner workspace over
/// a run; the per-pulse backends ignore them.
template <class SweepFn>
void for_each_pulse(const PlanView& plan, const sim::PhaseHistory& history,
                    Index block, Index pulse_begin, Index pulse_end,
                    SweepFn&& sweep) {
  const auto& spec = plan.blocks[static_cast<std::size_t>(block)];
  const Index bx = spec.x0 - plan.region_x0;
  const Index by = spec.y0 - plan.region_y0;
  const Index samples = history.samples_per_pulse();
  const auto order_at = [&](Index p) {
    return plan.pulse_order[static_cast<std::size_t>(p)];
  };
  for (Index p = pulse_begin; p < pulse_end; ++p) {
    const bool x_inner = order_at(p) == geometry::LoopOrder::kXInner;
    const bool run_first = p == pulse_begin || order_at(p - 1) != order_at(p);
    const bool run_last = p + 1 == pulse_end || order_at(p + 1) != order_at(p);
    const Index len_l = x_inner ? spec.width : spec.height;
    const Index len_m = x_inner ? spec.height : spec.width;
    sweep(plan.tables_for(block, p), history.pulse(p).data(), samples,
          x_inner, bx, by, len_l, len_m, run_first, run_last);
  }
}

/// The plan executor's scalar sweep, verbatim — the byte-identity anchor.
class HostScalarBackend final : public TileBackend {
 public:
  HostScalarBackend(std::string name, double rate_smoothing,
                    obs::Registry* metrics)
      : TileBackend(std::move(name), 1.0, rate_smoothing, metrics) {}

  void sweep_block(const PlanView& plan, const sim::PhaseHistory& history,
                   Index block, Index pulse_begin, Index pulse_end,
                   bp::SoaTile& tile) override {
    for_each_pulse(plan, history, block, pulse_begin, pulse_end,
                   [&](const asr::BlockTables& t, const CFloat* in,
                       Index samples, bool x_inner, Index bx, Index by,
                       Index len_l, Index len_m, bool /*run_first*/,
                       bool /*run_last*/) {
                     bp::asr_sweep_block(t, in, samples, x_inner, bx, by,
                                         len_l, len_m, tile);
                   });
  }
};

/// Lane count of the resolved ISA — the capability prior for a SIMD
/// backend relative to the scalar one.
double simd_rate_prior(bp::SimdIsa isa) {
  switch (bp::asr_resolve_isa(isa)) {
    case bp::SimdIsa::kAvx512: return 16.0;
    case bp::SimdIsa::kAvx2: return 8.0;
    default: return 1.0;
  }
}

/// Fused SIMD plan replay with runtime ISA dispatch. The y_inner workspace
/// is thread_local (sweep_block runs concurrently on several long-lived
/// executor workers) and stays resident across each same-orientation pulse
/// run, so the zero + transposed flush cost is per block, not per pulse.
class HostSimdBackend final : public TileBackend {
 public:
  HostSimdBackend(std::string name, bp::SimdIsa isa, bp::KernelVariant variant,
                  double rate_smoothing, obs::Registry* metrics)
      : TileBackend(std::move(name), simd_rate_prior(isa), rate_smoothing,
                    metrics),
        isa_(bp::asr_resolve_isa(isa)),
        variant_(variant) {}

  void sweep_block(const PlanView& plan, const sim::PhaseHistory& history,
                   Index block, Index pulse_begin, Index pulse_end,
                   bp::SoaTile& tile) override {
    static thread_local AlignedVector<float> ws_re;
    static thread_local AlignedVector<float> ws_im;
    for_each_pulse(plan, history, block, pulse_begin, pulse_end,
                   [&](const asr::BlockTables& t, const CFloat* in,
                       Index samples, bool x_inner, Index bx, Index by,
                       Index len_l, Index len_m, bool run_first,
                       bool run_last) {
                     bp::asr_plan_sweep_simd(t, in, samples, x_inner, bx, by,
                                             len_l, len_m, tile, isa_,
                                             variant_, ws_re, ws_im,
                                             /*zero_ws=*/run_first,
                                             /*flush_ws=*/run_last);
                   });
  }

 private:
  const bp::SimdIsa isa_;
  const bp::KernelVariant variant_;
};

/// Simulated coprocessor: the arithmetic physically runs on this host
/// (scalar sweep, so abort/checkpoint latency stays block-bounded); its
/// *simulated* time is the measured time rescaled by the device/host
/// effective-rate ratio, which is what the split adapts to. PCIe time is
/// not part of a sweep: callers that account whole frames add it with
/// offload::modeled_transfer_seconds (DESIGN.md §12).
class OffloadSimBackend final : public TileBackend {
 public:
  OffloadSimBackend(std::string name, offload::DeviceSpec device,
                    offload::DeviceSpec host_model, double rate_smoothing,
                    obs::Registry* metrics)
      : TileBackend(std::move(name),
                    device.effective_gflops() / host_model.effective_gflops(),
                    rate_smoothing, metrics),
        device_(std::move(device)),
        host_model_(std::move(host_model)) {
    device_.validate();
    host_model_.validate();
  }

  void sweep_block(const PlanView& plan, const sim::PhaseHistory& history,
                   Index block, Index pulse_begin, Index pulse_end,
                   bp::SoaTile& tile) override {
    for_each_pulse(plan, history, block, pulse_begin, pulse_end,
                   [&](const asr::BlockTables& t, const CFloat* in,
                       Index samples, bool x_inner, Index bx, Index by,
                       Index len_l, Index len_m, bool /*run_first*/,
                       bool /*run_last*/) {
                     bp::asr_sweep_block(t, in, samples, x_inner, bx, by,
                                         len_l, len_m, tile);
                   });
  }

  [[nodiscard]] double simulated_seconds(
      double measured_seconds) const override {
    return offload::simulated_compute_seconds(device_, host_model_,
                                              measured_seconds);
  }

 private:
  offload::DeviceSpec device_;
  offload::DeviceSpec host_model_;
};

}  // namespace

std::shared_ptr<TileBackend> make_backend(const BackendSpec& spec,
                                          double rate_smoothing,
                                          obs::Registry* metrics) {
  switch (spec.kind) {
    case BackendSpec::Kind::kHostScalar:
      return std::make_shared<HostScalarBackend>(
          spec.name.empty() ? "scalar" : spec.name, rate_smoothing, metrics);
    case BackendSpec::Kind::kHostSimd: {
      const std::string name =
          spec.name.empty()
              ? std::string("simd-") +
                    bp::simd_isa_name(bp::asr_resolve_isa(spec.isa))
              : spec.name;
      return std::make_shared<HostSimdBackend>(name, spec.isa, spec.variant,
                                               rate_smoothing, metrics);
    }
    case BackendSpec::Kind::kOffloadSim: {
      const std::string name = spec.name.empty()
                                   ? "offload-" + spec.device.name
                                   : spec.name;
      return std::make_shared<OffloadSimBackend>(
          name, spec.device, spec.host_model, rate_smoothing, metrics);
    }
  }
  ensure(false, "make_backend: unknown backend kind");
  return nullptr;
}

BackendSet::BackendSet(const std::vector<BackendSpec>& specs,
                       double rate_smoothing, obs::Registry* metrics) {
  ensure(!specs.empty(), "BackendSet: at least one backend");
  backends_.reserve(specs.size());
  for (const auto& spec : specs) {
    backends_.push_back(make_backend(spec, rate_smoothing, metrics));
  }
}

std::vector<double> BackendSet::split() const {
  std::vector<double> weights(backends_.size());
  bool all_observed = true;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i]->observed_rate() <= 0.0) {
      all_observed = false;
      break;
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    weights[i] = all_observed ? backends_[i]->observed_rate()
                              : backends_[i]->rate_prior();
    total += weights[i];
  }
  for (auto& w : weights) w /= total;
  return weights;
}

std::vector<Index> BackendSet::partition(Index n) const {
  const std::vector<double> fractions = split();
  std::vector<Index> bounds(backends_.size() + 1, 0);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    cumulative += fractions[i];
    const auto edge =
        static_cast<Index>(std::llround(cumulative * static_cast<double>(n)));
    bounds[i + 1] = std::clamp<Index>(edge, bounds[i], n);
    backends_[i]->set_split_gauge(fractions[i]);
  }
  bounds.back() = n;
  return bounds;
}

}  // namespace sarbp::exec
