// Work-stealing tile executor tests: Chase-Lev deque semantics under
// contention, group lifecycle (completion continuation, abort, errors),
// steal behaviour, and the acceptance parity check — plan replays through
// the executor byte-identical to service::execute_plan (scalar) and to
// each other (host SIMD) at every worker count with stealing on and off.
// The OpenMP Backprojector driver's bit-identity to its serial partition
// loop is checked here too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "backprojection/backprojector.h"
#include "backprojection/kernel.h"
#include "backprojection/partition.h"
#include "backprojection/soa_tile.h"
#include "common/grid2d.h"
#include "exec/executor.h"
#include "exec/steal_deque.h"
#include "exec/task_group.h"
#include "exec/tile_backend.h"
#include "service/plan_cache.h"
#include "test_helpers.h"

namespace sarbp::exec {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- deque ---

TEST(StealDeque, OwnerPopsLifoThievesStealFifo) {
  StealDeque deque(8);
  std::vector<TaskUnit> units(4);
  for (auto& unit : units) EXPECT_TRUE(deque.push(&unit));
  EXPECT_EQ(deque.size_approx(), 4u);

  EXPECT_EQ(deque.steal(), &units[0]);  // oldest first
  EXPECT_EQ(deque.pop(), &units[3]);    // newest first
  EXPECT_EQ(deque.steal(), &units[1]);
  EXPECT_EQ(deque.pop(), &units[2]);
  EXPECT_EQ(deque.pop(), nullptr);
  EXPECT_EQ(deque.steal(), nullptr);
}

TEST(StealDeque, PushFailsWhenFull) {
  StealDeque deque(4);  // rounds to capacity 4
  std::vector<TaskUnit> units(5);
  for (std::size_t i = 0; i < deque.capacity(); ++i) {
    EXPECT_TRUE(deque.push(&units[i]));
  }
  EXPECT_FALSE(deque.push(&units[4]));
  EXPECT_NE(deque.steal(), nullptr);  // stealing frees a slot
  EXPECT_TRUE(deque.push(&units[4]));
}

// Owner pushes and pops while thieves hammer steal(): every unit must be
// claimed exactly once, by exactly one side. This is the race the TSan run
// exists to check.
TEST(StealDeque, StressEveryUnitClaimedExactlyOnce) {
  constexpr int kUnits = 20000;
  constexpr int kThieves = 3;
  StealDeque deque(1024);
  std::vector<TaskUnit> units(kUnits);
  for (int i = 0; i < kUnits; ++i) units[i].index = static_cast<std::uint32_t>(i);

  std::vector<std::atomic<int>> claimed(kUnits);
  std::atomic<bool> done{false};
  std::atomic<int> total{0};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire) || deque.size_approx() > 0) {
        if (TaskUnit* unit = deque.steal()) {
          claimed[unit->index].fetch_add(1, std::memory_order_relaxed);
          total.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  int next = 0;
  while (next < kUnits) {
    // Push a burst, then pop roughly half of it back — exercises the
    // owner/thief race on the last item.
    int burst = 0;
    while (next < kUnits && burst < 64 && deque.push(&units[next])) {
      ++next;
      ++burst;
    }
    for (int k = 0; k < burst / 2; ++k) {
      if (TaskUnit* unit = deque.pop()) {
        claimed[unit->index].fetch_add(1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  while (TaskUnit* unit = deque.pop()) {
    claimed[unit->index].fetch_add(1, std::memory_order_relaxed);
    total.fetch_add(1, std::memory_order_relaxed);
  }
  done.store(true, std::memory_order_release);
  for (auto& thief : thieves) thief.join();

  EXPECT_EQ(total.load(), kUnits);
  for (int i = 0; i < kUnits; ++i) {
    EXPECT_EQ(claimed[i].load(), 1) << "unit " << i;
  }
}

// ------------------------------------------------------------- executor ---

TEST(TileExecutor, RunsEveryTaskExactlyOnce) {
  constexpr int kTasks = 100;
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<TaskGroup::Task> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&runs, i](int, TaskGroup&) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::atomic<bool> completed{false};
  auto group = std::make_shared<TaskGroup>(
      std::move(tasks), nullptr,
      [&](TaskGroup&) { completed.store(true, std::memory_order_release); });

  obs::Registry registry;
  ExecOptions options;
  options.workers = 4;
  options.metrics = &registry;
  TileExecutor executor(std::move(options));
  executor.run(group);

  EXPECT_TRUE(completed.load());
  EXPECT_FALSE(group->aborted());
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
  EXPECT_EQ(registry.counter("exec.tasks.run").value(),
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(registry.counter("exec.groups.completed").value(), 1u);
}

TEST(TileExecutor, CheckpointFalseAbortsAndSkipsRemainingTasks) {
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  std::atomic<int> polls{0};
  std::vector<TaskGroup::Task> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(
        [&](int, TaskGroup&) { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  // Trip after a handful of polls — mid-group, possibly during steals.
  auto checkpoint = [&]() -> bool {
    return polls.fetch_add(1, std::memory_order_relaxed) < 5;
  };
  auto group = std::make_shared<TaskGroup>(std::move(tasks), checkpoint,
                                           nullptr);

  obs::Registry registry;
  ExecOptions options;
  options.workers = 4;
  options.metrics = &registry;
  TileExecutor executor(std::move(options));
  executor.run(group);

  EXPECT_TRUE(group->aborted());
  EXPECT_TRUE(group->error().empty());  // checkpoint aborts carry no error
  EXPECT_LT(ran.load(), kTasks);
  EXPECT_EQ(registry.counter("exec.tasks.run").value() +
                registry.counter("exec.tasks.skipped").value(),
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(registry.counter("exec.groups.aborted").value(), 1u);
}

TEST(TileExecutor, TaskExceptionAbortsGroupAndRecordsFirstError) {
  std::vector<TaskGroup::Task> tasks;
  tasks.push_back([](int, TaskGroup&) {});
  tasks.push_back(
      [](int, TaskGroup&) { throw std::runtime_error("tile exploded"); });
  for (int i = 0; i < 16; ++i) tasks.push_back([](int, TaskGroup&) {});
  auto group = std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr);

  ExecOptions options;
  options.workers = 2;
  options.metrics = nullptr;  // default registry; counters not asserted here
  TileExecutor executor(std::move(options));
  executor.run(group);

  EXPECT_TRUE(group->aborted());
  EXPECT_EQ(group->error(), "tile exploded");
}

TEST(TileExecutor, IdleWorkerStealsFromRunningJob) {
  // One group, two workers: the claimer injects both tasks into its own
  // deque, so the pair can only overlap in time if the second worker
  // steals. Each task waits until both are in flight (with a timeout so a
  // regression fails instead of hanging).
  std::atomic<int> in_flight{0};
  auto body = [&](int, TaskGroup&) {
    in_flight.fetch_add(1, std::memory_order_acq_rel);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (in_flight.load(std::memory_order_acquire) < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  std::vector<TaskGroup::Task> tasks{body, body};
  auto group = std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr);

  obs::Registry registry;
  ExecOptions options;
  options.workers = 2;
  options.steal = true;
  options.metrics = &registry;
  TileExecutor executor(std::move(options));
  executor.run(group);

  EXPECT_EQ(in_flight.load(), 2);
  EXPECT_GE(group->tasks_stolen(), 1u);
  EXPECT_GE(registry.counter("exec.tasks.stolen").value(), 1u);
}

TEST(TileExecutor, StealOffRunsGroupOnClaimingWorkerOnly) {
  constexpr int kTasks = 32;
  std::atomic<int> ran{0};
  std::vector<TaskGroup::Task> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(
        [&](int, TaskGroup&) { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  auto group = std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr);

  ExecOptions options;
  options.workers = 4;
  options.steal = false;
  obs::Registry registry;
  options.metrics = &registry;
  TileExecutor executor(std::move(options));
  executor.run(group);

  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(group->tasks_stolen(), 0u);
  EXPECT_EQ(registry.counter("exec.tasks.stolen").value(), 0u);
}

TEST(TileExecutor, PullSourceDrainsToEndOfStream) {
  constexpr int kGroups = 8;
  std::atomic<int> handed{0};
  std::atomic<int> completed{0};

  ExecOptions options;
  options.workers = 2;
  obs::Registry registry;
  options.metrics = &registry;
  options.source = [&](int, bool* end) -> GroupPtr {
    const int n = handed.fetch_add(1, std::memory_order_acq_rel);
    if (n >= kGroups) {
      handed.store(kGroups, std::memory_order_release);
      *end = true;
      return nullptr;
    }
    std::vector<TaskGroup::Task> tasks;
    for (int i = 0; i < 4; ++i) tasks.push_back([](int, TaskGroup&) {});
    return std::make_shared<TaskGroup>(
        std::move(tasks), nullptr,
        [&](TaskGroup&) { completed.fetch_add(1, std::memory_order_relaxed); });
  };
  {
    TileExecutor executor(std::move(options));
    executor.drain();
  }
  EXPECT_EQ(completed.load(), kGroups);
}

TEST(TileExecutor, ParkedPeerStealsFromGroupAnotherWorkerInjected) {
  // Two workers and a pull source that hands out one two-task group. The
  // first task to start holds its worker for up to 10 s until the other
  // task has started, so the group finishes promptly only if the idle peer
  // is woken by the injection and steals. An executor that waits for work
  // inside its source, which nothing but new jobs wakes, fails here.
  std::mutex m;
  std::condition_variable cv;
  int started = 0;
  bool handed = false;
  bool finished = false;
  std::vector<int> ran_on;

  std::vector<TaskGroup::Task> tasks;
  for (int i = 0; i < 2; ++i) {
    tasks.push_back([&](int w, TaskGroup&) {
      std::unique_lock lock(m);
      ran_on.push_back(w);
      ++started;
      cv.notify_all();
      cv.wait_for(lock, 10s, [&] { return started == 2; });
    });
  }
  auto group = std::make_shared<TaskGroup>(
      std::move(tasks), nullptr, [&](TaskGroup&) {
        std::lock_guard lock(m);
        finished = true;
      });

  ExecOptions options;
  options.workers = 2;
  obs::Registry registry;
  options.metrics = &registry;
  options.source = [&](int, bool* end) -> GroupPtr {
    std::lock_guard lock(m);
    if (finished) *end = true;
    if (handed) return nullptr;
    handed = true;
    return group;
  };
  const auto start = std::chrono::steady_clock::now();
  {
    TileExecutor executor(std::move(options));
    group->wait();
    executor.drain();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
  EXPECT_EQ(started, 2);
  ASSERT_EQ(ran_on.size(), 2u);
  EXPECT_NE(ran_on[0], ran_on[1]);
  EXPECT_EQ(group->tasks_stolen(), 1u);
}

TEST(TileExecutor, SubmitAfterDrainIsRejected) {
  ExecOptions options;
  options.workers = 1;
  TileExecutor executor(std::move(options));
  executor.drain();
  std::vector<TaskGroup::Task> tasks{[](int, TaskGroup&) {}};
  auto group = std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr);
  EXPECT_FALSE(executor.submit(group));
}

// --------------------------------------------------------------- parity ---

// Uninstrumented libgomp makes OpenMP regions false-positive under TSan
// (see tools/run_sanitized_tests.sh), so the OpenMP driver check below is
// skipped there; the plan-replay parity test runs in every build.
#if defined(__SANITIZE_THREAD__)
#define SARBP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SARBP_TSAN 1
#endif
#endif

// The exact computation Backprojector::add_pulses performs — same
// partition, same per-part kernel, same tile reduction — minus the OpenMP
// fan-out.
Grid2D<CFloat> serial_add_pulses(const sim::PhaseHistory& history,
                                 const geometry::ImageGrid& grid,
                                 const bp::BackprojectOptions& options,
                                 int workers) {
  Grid2D<CFloat> out(grid.width(), grid.height());
  const bp::CubeShape shape{history.num_pulses(), grid.width(), grid.height()};
  const auto choice =
      bp::choose_partition(shape, workers, options.min_region_edge);
  bp::SoaTile tile;
  for (const auto& part : bp::partition_cube(shape, choice)) {
    tile.reset(part.region.width, part.region.height);
    bp::run_cube_part(history, grid, options, part, tile);
    tile.accumulate_into(out, part.region);
  }
  return out;
}

bool images_bit_identical(const Grid2D<CFloat>& a, const Grid2D<CFloat>& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  for (Index y = 0; y < a.height(); ++y) {
    if (std::memcmp(a.row(y).data(), b.row(y).data(),
                    static_cast<std::size_t>(a.width()) * sizeof(CFloat)) != 0) {
      return false;
    }
  }
  return true;
}

bool tiles_bit_identical(const bp::SoaTile& a, const bp::SoaTile& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  const auto bytes = sizeof(float) * static_cast<std::size_t>(a.width());
  for (Index y = 0; y < a.height(); ++y) {
    if (std::memcmp(a.row_re(y), b.row_re(y), bytes) != 0) return false;
    if (std::memcmp(a.row_im(y), b.row_im(y), bytes) != 0) return false;
  }
  return true;
}

struct ParityShape {
  Index image;
  Index min_region_edge;
  int parallelism;
  const char* label;
};

// The OpenMP driver is deterministic and equals its own partition loop run
// serially, for every kernel. Shapes are chosen so the partitioner yields
// parts_pulse <= 2 — with at most two addends per output pixel, float
// summation is order-free (commutativity suffices), so the comparison is
// exact.
TEST(OpenMpDriver, AddPulsesBitIdenticalToSerialPartitionLoop) {
#if defined(SARBP_TSAN)
  GTEST_SKIP() << "OpenMP regions are not TSan-instrumented";
#else
  using bp::KernelKind;
  const ParityShape shapes[] = {
      {96, 32, 4, "image-split x4"},     // parts_pulse = 1
      {64, 64, 2, "pulse-split x2"},     // parts_pulse = 2
  };
  for (const auto& shape : shapes) {
    testing::ScenarioConfig cfg;
    cfg.image = shape.image;
    cfg.pulses = 48;
    const auto scenario = testing::make_scenario(cfg);

    for (KernelKind kind :
         {KernelKind::kBaseline, KernelKind::kBaselineAllFloat,
          KernelKind::kAsrScalar, KernelKind::kAsrSimd}) {
      if (kind == KernelKind::kAsrSimd && !bp::asr_simd_available()) continue;
      bp::BackprojectOptions options;
      options.kernel = kind;
      options.asr_block_w = 32;
      options.asr_block_h = 32;
      options.min_region_edge = shape.min_region_edge;
      options.threads = shape.parallelism;

      const Grid2D<CFloat> reference = serial_add_pulses(
          scenario.history, scenario.grid, options, shape.parallelism);
      const bp::Backprojector driver(scenario.grid, options);
      Grid2D<CFloat> via_driver(scenario.grid.width(), scenario.grid.height());
      driver.add_pulses(scenario.history, via_driver);
      EXPECT_TRUE(images_bit_identical(reference, via_driver))
          << shape.label << ", kernel " << bp::kernel_name(kind);
    }
  }
#endif
}

// Acceptance criterion for the formation engine: one cached plan replayed
// through service::make_plan_replay_group on the tile executor gives the
// same bytes at every worker count with stealing on and off. The scalar
// replay (null backend set) is byte-identical to the single-thread
// service::execute_plan anchor; the default host-SIMD replay is
// bit-identical across schedules (blocks are disjoint pixel rectangles and
// each block's pulse order is fixed). A checkpoint that returns false
// aborts the group before any block is swept.
TEST(ExecutorParity, PlanReplayBitIdenticalAcrossWorkersAndSteal) {
  testing::ScenarioConfig cfg;
  cfg.image = 96;
  cfg.pulses = 32;
  const auto scenario = testing::make_scenario(cfg);
  const auto history =
      std::make_shared<const sim::PhaseHistory>(scenario.history);
  const Region region{0, 0, cfg.image, cfg.image};
  const auto plan = service::build_formation_plan(scenario.grid, region, 16,
                                                  16, *history);

  bp::SoaTile anchor(region.width, region.height);
  ASSERT_TRUE(service::execute_plan(*plan, *history, anchor, nullptr));

  BackendSpec simd_spec;
  simd_spec.kind = BackendSpec::Kind::kHostSimd;
  obs::Registry backend_registry;
  const auto simd =
      std::make_shared<BackendSet>(std::vector<BackendSpec>{simd_spec}, 0.5,
                                   &backend_registry);

  std::shared_ptr<bp::SoaTile> first_simd;
  for (const int workers : {1, 2, 4}) {
    for (const bool steal : {false, true}) {
      SCOPED_TRACE(::testing::Message() << workers << " workers, steal "
                                        << (steal ? "on" : "off"));
      ExecOptions exec_options;
      exec_options.workers = workers;
      exec_options.steal = steal;
      obs::Registry registry;
      exec_options.metrics = &registry;
      TileExecutor executor(std::move(exec_options));

      auto scalar = std::make_shared<bp::SoaTile>(region.width, region.height);
      executor.run(service::make_plan_replay_group(
          plan, history, workers, 0, scalar, nullptr, nullptr));
      EXPECT_TRUE(tiles_bit_identical(anchor, *scalar));

      auto vector = std::make_shared<bp::SoaTile>(region.width, region.height);
      executor.run(service::make_plan_replay_group(
          plan, history, workers, 0, vector, nullptr, nullptr, 0, -1, simd));
      if (first_simd == nullptr) {
        first_simd = vector;
      } else {
        EXPECT_TRUE(tiles_bit_identical(*first_simd, *vector));
      }

      auto untouched =
          std::make_shared<bp::SoaTile>(region.width, region.height);
      auto aborted = service::make_plan_replay_group(
          plan, history, workers, 0, untouched, [] { return false; }, nullptr);
      executor.run(aborted);
      EXPECT_TRUE(aborted->aborted());
      EXPECT_TRUE(tiles_bit_identical(
          bp::SoaTile(region.width, region.height), *untouched));
    }
  }
}

}  // namespace
}  // namespace sarbp::exec
