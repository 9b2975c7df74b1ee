// Tile-executor scaling bench: one cached formation plan replayed through
// service::make_plan_replay_group — the task decomposition the service
// runs — on the work-stealing TileExecutor, sweeping worker count, job size
// and steal on/off. The backend set is the service's default: one host
// SIMD backend (runtime ISA dispatch).
//
// steal=off is the serial baseline: the whole group runs on the worker
// that injected it (exactly the pre-executor service behaviour, one job
// per core). steal=on lets every idle worker converge on the job, so the
// steal-on/steal-off ratio at each worker count is the intra-job speedup
// the executor buys. Scheduling invariance of the replayed image is
// asserted in tests/test_exec.cpp; this bench only measures time.
//
//   exec_scaling [--ix 96,160 --pulses 48 --block 32 --workers 1,2,4
//                 --warmup 1 --repeat 3 --json out.json]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "exec/executor.h"
#include "exec/tile_backend.h"
#include "service/plan_cache.h"
#include "service/service.h"

namespace {

using namespace sarbp;

std::vector<Index> parse_index_list(const std::string& spec,
                                    std::vector<Index> fallback) {
  std::vector<Index> values;
  std::string current;
  for (const char c : spec + ",") {
    if (c == ',') {
      if (!current.empty()) values.push_back(std::atol(current.c_str()));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  return values.empty() ? fallback : values;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  const std::vector<Index> images =
      parse_index_list(args.gets("ix"), {96, 160});
  const std::vector<Index> workers_list =
      parse_index_list(args.gets("workers"), {1, 2, 4});
  const Index pulses = args.get("pulses", 48);
  const Index block = args.get("block", 32);
  const bench::RepeatSpec spec = bench::repeat_spec(args);
  bench::JsonReporter json("exec_scaling", spec);

  // The service's default set: one host SIMD backend.
  obs::Registry backend_registry;
  const auto backends = std::make_shared<exec::BackendSet>(
      service::ServiceConfig{}.backends, 0.5, &backend_registry);

  bench::print_header(
      "tile-executor scaling: workers x job size x steal on/off");
  std::printf("pulses %lld, ASR block %lld, backend %s, warmup %d, "
              "repeat %d\n",
              static_cast<long long>(pulses), static_cast<long long>(block),
              backends->backend(0).name().c_str(), spec.warmup, spec.repeat);
  bench::print_rule();
  std::printf("%6s %8s %6s %11s %11s %8s %8s\n", "image", "workers", "steal",
              "median s", "iqr s", "tasks", "speedup");
  bench::print_rule();

  for (const Index image : images) {
    auto scenario = bench::make_bench_scenario(image, pulses);
    const auto history = std::make_shared<const sim::PhaseHistory>(
        std::move(scenario.history));
    const auto plan = service::build_formation_plan(
        scenario.grid, Region{0, 0, image, image}, block, block, *history);

    for (const Index workers : workers_list) {
      double serial_median = 0.0;
      for (const bool steal : {false, true}) {
        obs::Registry registry;
        exec::ExecOptions exec_options;
        exec_options.workers = static_cast<int>(workers);
        exec_options.steal = steal;
        exec_options.metrics = &registry;
        exec::TileExecutor executor(std::move(exec_options));
        std::size_t tasks = 0;
        const auto sample = [&]() -> double {
          auto tile = std::make_shared<bp::SoaTile>(image, image);
          auto group = service::make_plan_replay_group(
              plan, history, static_cast<int>(workers), 0, tile, nullptr,
              nullptr, 0, -1, backends);
          tasks = group->size();
          Timer timer;
          executor.run(group);
          return timer.seconds();
        };
        const bench::SampleStats stats = bench::run_repeated(spec, sample);
        if (!steal) serial_median = stats.median;
        const double speedup =
            steal && stats.median > 0.0 ? serial_median / stats.median : 1.0;
        std::printf("%6lld %8lld %6s %11.5f %11.5f %8zu %7.2fx\n",
                    static_cast<long long>(image),
                    static_cast<long long>(workers), steal ? "on" : "off",
                    stats.median, stats.iqr(), tasks, speedup);
        json.add("backprojection_job",
                 {{"image", std::to_string(image)},
                  {"workers", std::to_string(workers)},
                  {"steal", steal ? "on" : "off"},
                  {"pulses", std::to_string(pulses)},
                  {"tasks", std::to_string(tasks)}},
                 "seconds", stats);
      }
    }
    bench::print_rule();
  }
  return 0;
}
