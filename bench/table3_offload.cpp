// Reproduces paper Table 3: single-node backprojection throughput for a
// dual-socket Xeon, one Xeon Phi, and Xeon + 2 Xeon Phi.
//
// Paper:   Xeon 7.4 Gbp/s (1.0x, 42%), 1 Phi 14.0 (1.9x, 28%),
//          Xeon + 2 Phi 35.5 (4.8x, 30%).
// Each row replays one cached formation plan through the service's engine
// (service::make_plan_replay_group on a 1-worker exec::TileExecutor) with
// its own exec::BackendSet: {scalar}, {knc} and {scalar, knc, knc}. The
// coprocessors are OffloadSimBackends (DESIGN.md §2, §12): their sweeps run
// on the host and report simulated time anchored to the measured host rate,
// and the set's §5.3 dynamic split adapts across frames; the rows take
// turns frame by frame. A backend's frame time is its
// block share divided by its observed rate; PCIe time
// (offload::modeled_transfer_seconds) overlaps compute as max(compute,
// transfer). So the *ratios* and efficiencies are the reproduction target;
// absolute Gbp/s is the single-thread scalar sweep of the host running the
// bench. The pure-model column shows the throughput the paper hardware
// implies.
//
//   table3_offload [--ix 384 --pulses 64 --frames 4]
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <vector>

#include "asr/block_plan.h"
#include "backprojection/kernel.h"
#include "bench_util.h"
#include "exec/executor.h"
#include "exec/tile_backend.h"
#include "offload/device.h"
#include "service/plan_cache.h"

namespace {

using namespace sarbp;

struct Frame {
  double wall_s = 0.0;      ///< max(compute, transfer)
  double transfer_s = 0.0;  ///< modeled PCIe time, max over coprocessors
  std::vector<double> split;
};

exec::ExecOptions one_worker(obs::Registry& metrics) {
  exec::ExecOptions options;
  options.workers = 1;
  options.metrics = &metrics;
  return options;
}

/// One Table 3 row: a BackendSet replaying the plan frame by frame on its
/// own 1-worker executor.
class RowReplay {
 public:
  RowReplay(std::shared_ptr<const service::FormationPlan> plan,
            std::shared_ptr<const sim::PhaseHistory> history,
            std::vector<exec::BackendSpec> specs)
      : plan_(std::move(plan)),
        history_(std::move(history)),
        specs_(std::move(specs)),
        backends_(
            std::make_shared<exec::BackendSet>(specs_, 0.5, &registry_)),
        executor_(one_worker(registry_)) {}

  /// Replays one frame and returns its accounting.
  Frame frame() {
    // The group partitions the blocks by the same split; nothing observes
    // a sweep between this call and the group's own.
    const std::vector<Index> bounds =
        backends_->partition(static_cast<Index>(plan_->blocks.size()));
    Frame frame;
    frame.split = backends_->split();
    auto tile = std::make_shared<bp::SoaTile>(plan_->key.region.width,
                                              plan_->key.region.height);
    executor_.run(service::make_plan_replay_group(
        plan_, history_, /*parallelism=*/1, /*tile_tasks=*/0, tile, nullptr,
        nullptr, 0, -1, backends_));

    double compute_s = 0.0;
    for (int k = 0; k < backends_->size(); ++k) {
      double pixels = 0.0;
      for (Index b = bounds[static_cast<std::size_t>(k)];
           b < bounds[static_cast<std::size_t>(k) + 1]; ++b) {
        const auto& block = plan_->blocks[static_cast<std::size_t>(b)];
        pixels += static_cast<double>(block.width) *
                  static_cast<double>(block.height);
      }
      const double rate = backends_->backend(k).observed_rate();
      if (pixels > 0.0 && rate > 0.0) {
        compute_s = std::max(
            compute_s,
            pixels * static_cast<double>(history_->num_pulses()) / rate);
      }
      const auto& spec = specs_[static_cast<std::size_t>(k)];
      if (spec.kind == exec::BackendSpec::Kind::kOffloadSim) {
        // The coprocessor receives the whole pulse batch and returns its
        // slice of the image (§5.3).
        const double bytes = static_cast<double>(history_->payload_bytes()) +
                             pixels * sizeof(CFloat);
        frame.transfer_s = std::max(
            frame.transfer_s,
            offload::modeled_transfer_seconds(spec.device, bytes));
      }
    }
    frame.wall_s = std::max(compute_s, frame.transfer_s);
    return frame;
  }

 private:
  std::shared_ptr<const service::FormationPlan> plan_;
  std::shared_ptr<const sim::PhaseHistory> history_;
  std::vector<exec::BackendSpec> specs_;
  obs::Registry registry_;
  std::shared_ptr<exec::BackendSet> backends_;
  exec::TileExecutor executor_;
};

exec::BackendSpec xeon() {
  exec::BackendSpec spec;  // kHostScalar: the host model's anchor rate
  spec.name = "xeon";
  return spec;
}

exec::BackendSpec knc(const char* name) {
  exec::BackendSpec spec;
  spec.kind = exec::BackendSpec::Kind::kOffloadSim;
  spec.name = name;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sarbp::offload;
  const bench::Args args(argc, argv);
  const Index image = args.get("ix", 384);
  const Index pulses = args.get("pulses", 64);
  const int frames = static_cast<int>(args.get("frames", 4));
  const Index block = asr::kDefaultBlock;  // the service request default

  auto scenario = bench::make_bench_scenario(image, pulses);
  const auto history =
      std::make_shared<const sim::PhaseHistory>(std::move(scenario.history));
  const auto plan = service::build_formation_plan(
      scenario.grid, Region{0, 0, image, image}, block, block, *history);

  bench::print_header("Table 3 - single-node backprojection throughput");
  std::printf("workload: %lldx%lld image, %lld pulses, ASR block %lld, "
              "%d frames; one plan replayed per backend set, device models "
              "anchored to the measured host rate\n",
              static_cast<long long>(image), static_cast<long long>(image),
              static_cast<long long>(pulses), static_cast<long long>(block),
              frames);

  struct ConfigRow {
    const char* label;
    const char* paper_gbps;
    const char* paper_speedup;
    const char* paper_eff;
    std::vector<exec::BackendSpec> specs;
    double model_gbps;  // what the specs alone imply
  };
  const double xeon_eff = xeon_e5_2670_dual().effective_gflops();
  const double knc_eff = knights_corner().effective_gflops();
  const double per_bp = bp::kFlopsPerBackprojection;

  const ConfigRow rows[] = {
      {"Xeon (2-socket)", "7.4", "1.0x", "42%", {xeon()}, xeon_eff / per_bp},
      {"1 Xeon Phi", "14.0", "1.9x", "28%", {knc("knc0")}, knc_eff / per_bp},
      {"Xeon + 2 Xeon Phi", "35.5", "4.8x", "30%",
       {xeon(), knc("knc0"), knc("knc1")},
       (xeon_eff + 2 * knc_eff) / per_bp},
  };

  const double work = static_cast<double>(image) * static_cast<double>(image) *
                      static_cast<double>(pulses);
  std::deque<RowReplay> replays;  // RowReplay owns its executor: not movable
  for (const auto& row : rows) replays.emplace_back(plan, history, row.specs);
  // Rows take turns frame by frame, so a slow spell of a shared host hits
  // every row alike; the table reports each row's last frame.
  Frame measured[3];
  for (int f = 0; f < frames; ++f) {
    for (int i = 0; i < 3; ++i) measured[i] = replays[i].frame();
  }
  const double base = work / measured[0].wall_s;

  std::printf("\n%-20s | %8s %8s %5s | %14s %8s | %11s\n", "configuration",
              "paper", "speedup", "eff", "measured Gbp/s", "speedup",
              "model Gbp/s");
  bench::print_rule();
  for (int i = 0; i < 3; ++i) {
    const double rate = work / measured[i].wall_s;
    std::printf("%-20s | %8s %8s %5s | %14.3f %7.2fx | %11.1f\n",
                rows[i].label, rows[i].paper_gbps, rows[i].paper_speedup,
                rows[i].paper_eff, rate / 1e9, rate / base,
                rows[i].model_gbps);
  }
  const Frame& combined = measured[2];
  std::printf("\nXeon + 2 Xeon Phi, last frame: split");
  for (const double share : combined.split) std::printf(" %.3f", share);
  std::printf(" (model %.3f %.3f %.3f), PCIe %.2f ms of %.2f ms\n",
              xeon_eff / (xeon_eff + 2 * knc_eff),
              knc_eff / (xeon_eff + 2 * knc_eff),
              knc_eff / (xeon_eff + 2 * knc_eff), 1e3 * combined.transfer_s,
              1e3 * combined.wall_s);
  std::printf("(the model column is peak x efficiency / 38 FLOP, i.e. the\n"
              " paper-hardware throughput the Table 3 efficiencies imply)\n");
  return 0;
}
