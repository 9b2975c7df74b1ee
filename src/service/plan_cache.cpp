#include "service/plan_cache.h"

#include <algorithm>
#include <cstring>
#include <numbers>
#include <utility>

#include "backprojection/kernel_asr_block.h"
#include "backprojection/partition.h"
#include "common/check.h"
#include "common/timer.h"

namespace sarbp::service {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  // Byte-wise FNV-1a over the 8-byte word.
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
}

inline std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// exec-layer projection of a plan (see exec/tile_backend.h). Valid while
/// the plan lives — the task lambdas own a shared_ptr to it.
exec::PlanView plan_view(const FormationPlan& plan) {
  exec::PlanView view;
  view.blocks = plan.blocks.data();
  view.num_blocks = static_cast<Index>(plan.blocks.size());
  view.pulse_order = plan.pulse_order.data();
  view.num_pulses = plan.num_pulses();
  view.tables = plan.tables.data();
  view.region_x0 = plan.key.region.x0;
  view.region_y0 = plan.key.region.y0;
  return view;
}

}  // namespace

std::uint64_t pulse_geometry_signature(const sim::PhaseHistory& history) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(history.num_pulses()));
  fnv_mix(h, static_cast<std::uint64_t>(history.samples_per_pulse()));
  fnv_mix(h, double_bits(history.bin_spacing()));
  fnv_mix(h, double_bits(history.wavenumber()));
  for (Index p = 0; p < history.num_pulses(); ++p) {
    const auto& meta = history.meta(p);
    fnv_mix(h, double_bits(meta.position.x));
    fnv_mix(h, double_bits(meta.position.y));
    fnv_mix(h, double_bits(meta.position.z));
    fnv_mix(h, double_bits(meta.start_range_m));
  }
  return h;
}

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(k.grid_w));
  fnv_mix(h, static_cast<std::uint64_t>(k.grid_h));
  fnv_mix(h, double_bits(k.spacing));
  fnv_mix(h, double_bits(k.centre.x));
  fnv_mix(h, double_bits(k.centre.y));
  fnv_mix(h, double_bits(k.centre.z));
  fnv_mix(h, static_cast<std::uint64_t>(k.region.x0));
  fnv_mix(h, static_cast<std::uint64_t>(k.region.y0));
  fnv_mix(h, static_cast<std::uint64_t>(k.region.width));
  fnv_mix(h, static_cast<std::uint64_t>(k.region.height));
  fnv_mix(h, static_cast<std::uint64_t>(k.block_w));
  fnv_mix(h, static_cast<std::uint64_t>(k.block_h));
  fnv_mix(h, k.pulse_signature);
  return static_cast<std::size_t>(h);
}

PlanKey make_plan_key(const geometry::ImageGrid& grid, const Region& region,
                      Index block_w, Index block_h,
                      const sim::PhaseHistory& history) {
  PlanKey key;
  key.grid_w = grid.width();
  key.grid_h = grid.height();
  key.spacing = grid.spacing();
  key.centre = grid.centre();
  key.region = region;
  key.block_w = block_w;
  key.block_h = block_h;
  key.pulse_signature = pulse_geometry_signature(history);
  return key;
}

std::shared_ptr<FormationPlan> build_plan_skeleton(
    const geometry::ImageGrid& grid, const Region& region, Index block_w,
    Index block_h, const sim::PhaseHistory& history) {
  ensure(!region.empty(), "build_plan_skeleton: empty region");
  ensure(block_w > 0 && block_h > 0,
         "build_plan_skeleton: ASR block must be positive");
  ensure(history.num_pulses() > 0, "build_plan_skeleton: no pulses");

  auto plan = std::make_shared<FormationPlan>();
  plan->key = make_plan_key(grid, region, block_w, block_h, history);
  plan->blocks = asr::plan_blocks(region.x0, region.y0, region.width,
                                  region.height, block_w, block_h);

  const Index pulses = history.num_pulses();
  plan->pulse_order.resize(static_cast<std::size_t>(pulses));
  for (Index p = 0; p < pulses; ++p) {
    plan->pulse_order[static_cast<std::size_t>(p)] =
        geometry::choose_loop_order(history.meta(p).position, grid.centre());
  }

  // Size the arena, then carve every (block, pulse) view out of it in
  // block-major order. l is the inner image axis of the pulse's order.
  const auto table_dims = [](const asr::BlockSpec& block,
                             geometry::LoopOrder order) {
    return order == geometry::LoopOrder::kXInner
               ? std::pair{block.width, block.height}
               : std::pair{block.height, block.width};
  };
  std::size_t floats = 0;
  for (const auto& block : plan->blocks) {
    for (const geometry::LoopOrder order : plan->pulse_order) {
      const auto [len_l, len_m] = table_dims(block, order);
      floats += asr::table_floats(len_l, len_m);
    }
  }
  plan->arena = make_aligned_array<float>(floats);
  plan->bytes = floats * sizeof(float);
  plan->tables.reserve(plan->blocks.size() * static_cast<std::size_t>(pulses));
  float* next = plan->arena.get();
  for (const auto& block : plan->blocks) {
    for (const geometry::LoopOrder order : plan->pulse_order) {
      const auto [len_l, len_m] = table_dims(block, order);
      plan->tables.push_back(asr::carve_tables(next, len_l, len_m));
      next += asr::table_floats(len_l, len_m);
    }
  }
  return plan;
}

void fill_plan_block(const FormationPlan& plan,
                     const sim::PhaseHistory& history, std::size_t block) {
  const PlanKey& key = plan.key;
  const geometry::ImageGrid grid(key.grid_w, key.grid_h, key.spacing,
                                 key.centre);
  const auto& spec = plan.blocks[block];
  const geometry::Vec3 centre = grid.position_f(
      static_cast<double>(spec.x0) + 0.5 * static_cast<double>(spec.width - 1),
      static_cast<double>(spec.y0) +
          0.5 * static_cast<double>(spec.height - 1));
  const double two_pi_k = 2.0 * std::numbers::pi * history.wavenumber();
  for (Index p = 0; p < plan.num_pulses(); ++p) {
    const auto& meta = history.meta(p);
    const asr::Quadratic2D q = bp::block_range_quadratic(
        centre, meta.position, grid.spacing(),
        plan.pulse_order[static_cast<std::size_t>(p)]);
    asr::build_block_tables_fast(q, meta.start_range_m, history.bin_spacing(),
                                 two_pi_k, plan.tables_for(block, p));
  }
}

std::shared_ptr<const FormationPlan> build_formation_plan(
    const geometry::ImageGrid& grid, const Region& region, Index block_w,
    Index block_h, const sim::PhaseHistory& history) {
  auto plan = build_plan_skeleton(grid, region, block_w, block_h, history);
  for (std::size_t b = 0; b < plan->blocks.size(); ++b) {
    fill_plan_block(*plan, history, b);
  }
  return plan;
}

bool execute_plan(const FormationPlan& plan, const sim::PhaseHistory& history,
                  bp::SoaTile& tile, const std::function<bool()>& checkpoint,
                  exec::TileBackend* backend) {
  ensure(history.num_pulses() == plan.num_pulses(),
         "execute_plan: history pulse count does not match the plan");
  ensure(tile.width() == plan.key.region.width &&
             tile.height() == plan.key.region.height,
         "execute_plan: tile/region shape mismatch");
  if (backend == nullptr) {
    static const std::shared_ptr<exec::TileBackend> scalar =
        exec::make_backend(exec::BackendSpec{}, 0.5, nullptr);
    backend = scalar.get();
  }
  // Block-outer / pulse-inner, the cache-blocking order of the scalar
  // kernel: one block's output rows stay resident while the pulses stream.
  const exec::PlanView view = plan_view(plan);
  for (Index b = 0; b < view.num_blocks; ++b) {
    if (checkpoint && !checkpoint()) return false;
    backend->sweep_block(view, history, b, 0, view.num_pulses, tile);
  }
  return true;
}

exec::GroupPtr make_plan_replay_group(
    std::shared_ptr<const FormationPlan> plan,
    std::shared_ptr<const sim::PhaseHistory> history, int parallelism,
    Index tile_tasks, std::shared_ptr<bp::SoaTile> tile,
    std::function<bool()> checkpoint,
    std::function<void(exec::TaskGroup&)> on_complete,
    Index pulse_begin, Index pulse_end,
    std::shared_ptr<exec::BackendSet> backends, bool fill,
    ReplayOutput second) {
  ensure(plan != nullptr && history != nullptr && tile != nullptr,
         "make_plan_replay_group: null plan/history/tile");
  ensure(history->num_pulses() == plan->num_pulses(),
         "make_plan_replay_group: history pulse count does not match the plan");
  ensure(tile->width() == plan->key.region.width &&
             tile->height() == plan->key.region.height,
         "make_plan_replay_group: tile/region shape mismatch");
  ensure(parallelism >= 1, "make_plan_replay_group: parallelism >= 1");
  if (pulse_end < 0) pulse_end = plan->num_pulses();
  ensure(pulse_begin >= 0 && pulse_begin <= pulse_end &&
             pulse_end <= plan->num_pulses(),
         "make_plan_replay_group: bad pulse range");
  if (second.tile != nullptr) {
    ensure(second.tile->width() == tile->width() &&
               second.tile->height() == tile->height(),
           "make_plan_replay_group: second tile/region shape mismatch");
    ensure(second.pulse_begin >= 0 && second.pulse_begin <= second.pulse_end &&
               second.pulse_end <= plan->num_pulses(),
           "make_plan_replay_group: bad second pulse range");
  }
  if (backends == nullptr) {
    // One host scalar backend: execute_plan's sweep, spread over tasks.
    backends = std::make_shared<exec::BackendSet>(
        std::vector<exec::BackendSpec>(1), 0.5, nullptr);
  }

  const Index nblocks = static_cast<Index>(plan->blocks.size());
  // ~2 tasks per worker so thieves always find a remainder to take, but
  // never finer than one block per task.
  Index fanout = tile_tasks > 0
                     ? tile_tasks
                     : std::max<Index>(2, 2 * static_cast<Index>(parallelism));
  fanout = std::clamp<Index>(fanout, 1, nblocks);

  std::vector<exec::TaskGroup::Task> tasks;
  tasks.reserve(static_cast<std::size_t>(fanout));

  // Backend routing (§5.3): each backend owns a contiguous block range
  // sized by the current dynamic split, sub-divided into tasks in
  // proportion to its share of the fan-out. Each task times its sweeps
  // (not its table fills) and feeds the backend's observed-rate tracker,
  // which steers the *next* job's partition.
  const std::vector<Index> bounds = backends->partition(nblocks);
  const Index pulses = pulse_end - pulse_begin +
                       (second.tile != nullptr
                            ? second.pulse_end - second.pulse_begin
                            : 0);
  for (int k = 0; k < backends->size(); ++k) {
    const Index k0 = bounds[static_cast<std::size_t>(k)];
    const Index k1 = bounds[static_cast<std::size_t>(k) + 1];
    if (k0 >= k1) continue;
    const Index kblocks = k1 - k0;
    const Index ktasks = std::clamp<Index>(
        static_cast<Index>(std::llround(static_cast<double>(fanout) *
                                        static_cast<double>(kblocks) /
                                        static_cast<double>(nblocks))),
        1, kblocks);
    for (Index ti = 0; ti < ktasks; ++ti) {
      const Index b0 = k0 + bp::split_begin(kblocks, ktasks, ti);
      const Index b1 = k0 + bp::split_begin(kblocks, ktasks, ti + 1);
      exec::TileBackend* backend = &backends->backend(k);
      tasks.push_back([plan, history, tile, checkpoint, backends, backend,
                       b0, b1, pulse_begin, pulse_end, pulses, fill,
                       second](int, exec::TaskGroup& group) {
        const exec::PlanView view = plan_view(*plan);
        Timer timer;
        double fill_seconds = 0.0;
        double backprojections = 0.0;
        for (Index b = b0; b < b1; ++b) {
          // Same granularity as execute_plan: one cancellation poll per
          // block sweep, not per task.
          if (checkpoint && !checkpoint()) {
            group.abort();
            return;
          }
          if (fill) {
            // The block's tables are still in cache when the sweep reads
            // them.
            Timer fill_timer;
            fill_plan_block(*plan, *history, static_cast<std::size_t>(b));
            fill_seconds += fill_timer.seconds();
          }
          const auto& block = plan->blocks[static_cast<std::size_t>(b)];
          backend->sweep_block(view, *history, b, pulse_begin, pulse_end,
                               *tile);
          if (second.tile != nullptr) {
            backend->sweep_block(view, *history, b, second.pulse_begin,
                                 second.pulse_end, *second.tile);
          }
          backprojections += static_cast<double>(block.width) *
                             static_cast<double>(block.height) *
                             static_cast<double>(pulses);
        }
        backend->record(backprojections, timer.seconds() - fill_seconds);
      });
    }
  }

  return std::make_shared<exec::TaskGroup>(
      std::move(tasks), std::move(checkpoint), std::move(on_complete),
      "plan_replay");
}

PlanCache::PlanCache(std::size_t capacity, obs::Registry* metrics)
    : capacity_(capacity) {
  if constexpr (obs::kEnabled) {
    auto& reg = metrics != nullptr ? *metrics : obs::registry();
    hits_ = &reg.counter("service.plan_cache.hits");
    misses_ = &reg.counter("service.plan_cache.misses");
    evictions_ = &reg.counter("service.plan_cache.evictions");
    entries_gauge_ = &reg.gauge("service.plan_cache.entries");
    bytes_gauge_ = &reg.gauge("service.plan_cache.bytes");
  }
}

std::shared_ptr<const FormationPlan> PlanCache::find(const PlanKey& key) {
  {
    MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      if (hits_) hits_->add();
      return *it->second;
    }
  }
  if (misses_) misses_->add();
  return nullptr;
}

void PlanCache::insert(std::shared_ptr<const FormationPlan> plan) {
  if (capacity_ == 0) return;
  MutexLock lock(mutex_);
  if (index_.find(plan->key) == index_.end()) insert_locked(std::move(plan));
}

std::shared_ptr<const FormationPlan> PlanCache::find_or_skeleton(
    const geometry::ImageGrid& grid, const Region& region, Index block_w,
    Index block_h, const sim::PhaseHistory& history, bool* hit) {
  auto plan = find(make_plan_key(grid, region, block_w, block_h, history));
  *hit = plan != nullptr;
  if (plan != nullptr) return plan;
  return build_plan_skeleton(grid, region, block_w, block_h, history);
}

std::shared_ptr<const FormationPlan> PlanCache::get_or_build(
    const geometry::ImageGrid& grid, const Region& region, Index block_w,
    Index block_h, const sim::PhaseHistory& history, bool* hit) {
  auto plan = find(make_plan_key(grid, region, block_w, block_h, history));
  if (hit != nullptr) *hit = plan != nullptr;
  if (plan != nullptr) return plan;
  plan = build_formation_plan(grid, region, block_w, block_h, history);
  insert(plan);
  return plan;
}

void PlanCache::insert_locked(std::shared_ptr<const FormationPlan> plan) {
  lru_.push_front(std::move(plan));
  index_[lru_.front()->key] = lru_.begin();
  bytes_ += lru_.front()->bytes;
  while (lru_.size() > capacity_) {
    const auto& victim = lru_.back();
    bytes_ -= victim->bytes;
    index_.erase(victim->key);
    lru_.pop_back();
    if (evictions_) evictions_->add();
  }
  update_gauges_locked();
}

void PlanCache::update_gauges_locked() {
  if (entries_gauge_) entries_gauge_->set(static_cast<std::int64_t>(lru_.size()));
  if (bytes_gauge_) bytes_gauge_->set(static_cast<std::int64_t>(bytes_));
}

std::size_t PlanCache::size() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

std::size_t PlanCache::bytes() const {
  MutexLock lock(mutex_);
  return bytes_;
}

void PlanCache::clear() {
  MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  update_gauges_locked();
}

}  // namespace sarbp::service
