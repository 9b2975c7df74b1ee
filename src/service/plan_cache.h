// Formation plans and the LRU plan cache — the serving layer's answer to
// the repeated-scene workload: many requests forming the same grid from
// the same collection geometry (different priorities, tenants, or sample
// data) share one precomputation.
//
// A FormationPlan captures everything the ASR sweep needs that depends
// only on *geometry*, not on sample values: the block decomposition, the
// per-pulse loop order (wavefront orientation), and the per-(block, pulse)
// strength-reduction tables of paper Fig. 3(b) line 02. Building those
// tables is the per-request setup cost; replaying a cached plan skips it
// entirely. execute_plan sweeps every block through one TileBackend on the
// calling thread (the scalar one by default), so its image is byte-identical
// to a service job on the same backend; the service's default host SIMD
// replay agrees with the scalar one at > 70 dB.
//
// A plan keeps all its tables in one arena, sized in one allocation by the
// skeleton step (build_plan_skeleton) and written block by block by the
// fill step (fill_plan_block). On a cache miss the service builds only the
// skeleton during setup; the replay group's tasks fill each block's tables
// just before they sweep that block (make_plan_replay_group's `fill`), so
// the build is spread over every worker and swept while still in cache.
// The plan enters the cache from the group's completion, and only when the
// group was not aborted: a cancelled or expired job leaves no entry.
//
// Cache keying: (grid geometry, region, ASR block size, pulse-geometry
// signature). The signature hashes per-pulse positions/start ranges plus
// the sampling constants — two collections with equal trajectories hit the
// same plan even when their sample payloads differ.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"

#include "asr/block_plan.h"
#include "asr/tables.h"
#include "backprojection/soa_tile.h"
#include "common/aligned.h"
#include "common/region.h"
#include "exec/task_group.h"
#include "exec/tile_backend.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "geometry/wavefront.h"
#include "obs/metrics.h"
#include "sim/phase_history.h"

namespace sarbp::service {

/// FNV-1a over the per-pulse geometry (positions, start ranges) and the
/// sampling constants (count, samples per pulse, bin spacing, wavenumber)
/// — every input of the ASR tables except the sample values.
[[nodiscard]] std::uint64_t pulse_geometry_signature(
    const sim::PhaseHistory& history);

struct PlanKey {
  Index grid_w = 0;
  Index grid_h = 0;
  double spacing = 0.0;
  geometry::Vec3 centre;
  Region region;
  Index block_w = 0;
  Index block_h = 0;
  std::uint64_t pulse_signature = 0;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept;
};

[[nodiscard]] PlanKey make_plan_key(const geometry::ImageGrid& grid,
                                    const Region& region, Index block_w,
                                    Index block_h,
                                    const sim::PhaseHistory& history);

/// Precomputed setup for one (grid, region, block size, pulse geometry).
struct FormationPlan {
  PlanKey key;
  std::vector<asr::BlockSpec> blocks;
  std::vector<geometry::LoopOrder> pulse_order;  ///< [pulses]
  /// Per-(block, pulse) views into `arena`, block-major:
  /// tables[b * pulses + p]. Each view is carved by asr::carve_tables, and
  /// one block's sets lie contiguous in the arena.
  std::vector<asr::BlockTables> tables;
  /// Every table set of the plan in one allocation; uninitialized until
  /// fill_plan_block has written each block.
  AlignedArray<float> arena;
  std::size_t bytes = 0;  ///< arena size in bytes

  [[nodiscard]] Index num_pulses() const {
    return static_cast<Index>(pulse_order.size());
  }
  [[nodiscard]] const asr::BlockTables& tables_for(std::size_t block,
                                                   Index pulse) const {
    return tables[block * pulse_order.size() + static_cast<std::size_t>(pulse)];
  }
};

/// Skeleton step of a plan build: key, blocks, per-pulse loop order and
/// the sized arena with every table view carved, but no table written.
[[nodiscard]] std::shared_ptr<FormationPlan> build_plan_skeleton(
    const geometry::ImageGrid& grid, const Region& region, Index block_w,
    Index block_h, const sim::PhaseHistory& history);

/// Fill step: writes every pulse's tables of one block through the plan's
/// views (the arena is the only part written, so a plan shared read-only
/// with the replay tasks can still be filled). `history` must carry the
/// plan's pulse geometry. Distinct blocks own disjoint arena ranges and
/// may be filled concurrently; a plan must not be published to readers
/// until all its blocks are filled.
void fill_plan_block(const FormationPlan& plan,
                     const sim::PhaseHistory& history, std::size_t block);

/// Builds a whole plan on the calling thread (skeleton, then every block's
/// fill) — for the pulse-scatter front end, whose shards share one plan,
/// and for benches and tests.
[[nodiscard]] std::shared_ptr<const FormationPlan> build_formation_plan(
    const geometry::ImageGrid& grid, const Region& region, Index block_w,
    Index block_h, const sim::PhaseHistory& history);

/// Replays a plan over `history`, accumulating into `tile` (shaped like the
/// plan's region), on the calling thread: `backend`->sweep_block over every
/// block in order. A null backend is the host scalar sweep — the anchor
/// every scalar backend set is byte-identical to. `checkpoint` runs before
/// every block sweep; returning false aborts the replay (cooperative
/// cancellation / deadline expiry) and the partially-formed tile must be
/// discarded. Returns true on completion.
bool execute_plan(const FormationPlan& plan, const sim::PhaseHistory& history,
                  bp::SoaTile& tile, const std::function<bool()>& checkpoint,
                  exec::TileBackend* backend = nullptr);

/// A second output of one plan replay: right after a block's primary sweep,
/// the same task sweeps pulses [pulse_begin, pulse_end) of that block into
/// `tile` from the same tables. A null tile means no second output.
struct ReplayOutput {
  std::shared_ptr<bp::SoaTile> tile;
  Index pulse_begin = 0;
  Index pulse_end = 0;
};

/// Decomposes one plan replay into a TaskGroup for the tile executor: the
/// plan's blocks are split into contiguous block-range tasks that all
/// sweep into the shared region-sized `tile`. Blocks cover disjoint pixel
/// rectangles, so concurrent tasks never write the same element and the
/// result does not depend on how tasks are scheduled or stolen — the
/// accumulation order per pixel is always the plan's pulse order within
/// that pixel's block.
///
/// `checkpoint` keeps execute_plan's granularity: it is polled before
/// every block sweep (inside tasks) and again before each task starts
/// (by the executor); the first false aborts the whole group.
/// `tile_tasks` caps the fan-out; 0 = auto (~2 tasks per unit of
/// `parallelism`, never more than the block count). `on_complete` runs on
/// the worker that retires the last task — aborted groups must discard the
/// partially-swept tile there.
///
/// `[pulse_begin, pulse_end)` restricts the replay to a pulse range of the
/// plan (pulse_end == -1 means all pulses) — the pulse-scatter unit of the
/// sharded service: each shard replays its range of the same full-region
/// plan and the gather sums the partial tiles (shard-index order, the
/// documented reduction-order deviation from the single-node path).
///
/// `backends` (nullable) routes the plan's blocks across a BackendSet by
/// its §5.3 dynamic split: each backend gets a contiguous block range,
/// sub-divided into tasks proportional to its share, and each task's
/// measured sweep feeds the backend's observed-rate tracker. Null means
/// one HostScalarBackend (metrics in the global registry); any set of
/// only scalar backends is byte-identical to execute_plan (disjoint block
/// rectangles; same per-block pulse order).
///
/// `fill` marks `plan` as a skeleton (build_plan_skeleton) that no other
/// group reads: each task fills a block's tables (fill_plan_block) just
/// before it sweeps that block, and the fill time is kept out of the
/// backend's observed rate. The plan is complete once the group finishes
/// unaborted — the caller's `on_complete` is where it may be published.
///
/// `second` adds a second (tile, pulse range) output swept from the same
/// block tables (a streaming re-anchor's window tile plus its new chunk's
/// partial). A pulse range of a plan sweeps exactly as a plan over just
/// those pulses, so the second tile is byte-identical to that replay.
[[nodiscard]] exec::GroupPtr make_plan_replay_group(
    std::shared_ptr<const FormationPlan> plan,
    std::shared_ptr<const sim::PhaseHistory> history, int parallelism,
    Index tile_tasks, std::shared_ptr<bp::SoaTile> tile,
    std::function<bool()> checkpoint,
    std::function<void(exec::TaskGroup&)> on_complete,
    Index pulse_begin = 0, Index pulse_end = -1,
    std::shared_ptr<exec::BackendSet> backends = nullptr, bool fill = false,
    ReplayOutput second = {});

/// Thread-safe LRU cache of formation plans.
///
/// A capacity of 0 disables retention: every lookup misses — the knob the
/// bench uses for its cache-off baseline. Plans are built *outside* the
/// lock, and on the service's miss path a plan is inserted only when the
/// job that filled it completes, so concurrent jobs missing on the same key
/// (including any that arrive while the first is still computing) build
/// duplicate plans; the first insert wins and the duplicates are
/// garbage-collected by shared_ptr. That trade keeps a slow build from
/// stalling unrelated hits; single-flight builds are an open item.
///
/// Metrics (under the provided registry or the global one):
///   service.plan_cache.{hits,misses,evictions} counters,
///   service.plan_cache.{entries,bytes} gauges.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity, obs::Registry* metrics = nullptr);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The miss path's lookup: the cached plan when there is one (*hit =
  /// true), else a fresh build_plan_skeleton (*hit = false) for a replay
  /// group to fill and the caller to insert once that group completes.
  std::shared_ptr<const FormationPlan> find_or_skeleton(
      const geometry::ImageGrid& grid, const Region& region, Index block_w,
      Index block_h, const sim::PhaseHistory& history, bool* hit);

  /// Publishes a complete plan. A plan already cached under its key wins;
  /// a capacity of 0 retains nothing.
  void insert(std::shared_ptr<const FormationPlan> plan);

  /// The cached plan, else build_formation_plan on the calling thread and
  /// insert — the pulse-scatter front end's lookup, whose shards share the
  /// plan. `hit` (optional) reports whether the cache satisfied the lookup.
  std::shared_ptr<const FormationPlan> get_or_build(
      const geometry::ImageGrid& grid, const Region& region, Index block_w,
      Index block_h, const sim::PhaseHistory& history, bool* hit = nullptr);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  void clear();

 private:
  /// The cached plan for `key` (now most recently used), or null. Counts a
  /// hit or a miss.
  std::shared_ptr<const FormationPlan> find(const PlanKey& key);
  void insert_locked(std::shared_ptr<const FormationPlan> plan)
      SARBP_REQUIRES(mutex_);
  void update_gauges_locked() SARBP_REQUIRES(mutex_);

  const std::size_t capacity_;
  mutable Mutex mutex_{SARBP_LOCK_LEVEL("service.plan_cache")};
  /// Front = most recently used.
  std::list<std::shared_ptr<const FormationPlan>> lru_
      SARBP_GUARDED_BY(mutex_);
  std::unordered_map<PlanKey, decltype(lru_)::iterator, PlanKeyHash> index_
      SARBP_GUARDED_BY(mutex_);
  std::size_t bytes_ SARBP_GUARDED_BY(mutex_) = 0;

  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
};

}  // namespace sarbp::service
