#include "streaming/subaperture_cache.h"

#include <cstring>
#include <utility>

#include "common/check.h"

namespace sarbp::streaming {
namespace {

/// True when a partial swept from `a` is the partial of `b`: the same
/// sampling constants, pulse geometry and sample bytes.
bool same_chunk(const sim::PhaseHistory& a, const sim::PhaseHistory& b) {
  if (a.num_pulses() != b.num_pulses() ||
      a.samples_per_pulse() != b.samples_per_pulse() ||
      a.bin_spacing() != b.bin_spacing() || a.wavenumber() != b.wavenumber()) {
    return false;
  }
  for (Index p = 0; p < a.num_pulses(); ++p) {
    const auto& ma = a.meta(p);
    const auto& mb = b.meta(p);
    if (ma.position.x != mb.position.x || ma.position.y != mb.position.y ||
        ma.position.z != mb.position.z ||
        ma.start_range_m != mb.start_range_m) {
      return false;
    }
  }
  return a.payload_bytes() == 0 ||
         std::memcmp(a.pulse(0).data(), b.pulse(0).data(),
                     a.payload_bytes()) == 0;
}

std::size_t tile_bytes(const bp::SoaTile& tile) {
  return static_cast<std::size_t>(tile.width()) *
         static_cast<std::size_t>(tile.height()) * 2 * sizeof(float);
}

}  // namespace

SubApertureCache::SubApertureCache(SubApertureCacheConfig config)
    : config_(std::move(config)) {
  if constexpr (obs::kEnabled) {
    auto& reg =
        config_.metrics != nullptr ? *config_.metrics : obs::registry();
    hits_ = &reg.counter("streaming.cache.hits");
    misses_ = &reg.counter("streaming.cache.misses");
    evictions_ = &reg.counter("streaming.cache.evictions");
    collisions_ = &reg.counter("streaming.cache.collisions");
    inserts_ = &reg.counter("streaming.cache.inserts");
    entries_gauge_ = &reg.gauge("streaming.cache.entries");
    bytes_gauge_ = &reg.gauge("streaming.cache.bytes");
  }
}

service::PlanKey SubApertureCache::make_key(
    const geometry::ImageGrid& grid, const Region& region, Index block_w,
    Index block_h, const sim::PhaseHistory& chunk) const {
  ensure(chunk.num_pulses() > 0, "SubApertureCache::make_key: empty chunk");
  service::PlanKey key =
      service::make_plan_key(grid, region, block_w, block_h, chunk);
  if (config_.signature_fn) key.pulse_signature = config_.signature_fn(chunk);
  return key;
}

SubApertureCache::Partial SubApertureCache::find(
    const service::PlanKey& key, const sim::PhaseHistory& chunk) {
  MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    if (misses_) misses_->add();
    return nullptr;
  }
  if (!same_chunk(*it->second->chunk, chunk)) {
    if (collisions_) collisions_->add();
    if (misses_) misses_->add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  if (hits_) hits_->add();
  return it->second->partial;
}

void SubApertureCache::insert(const service::PlanKey& key,
                              std::shared_ptr<const sim::PhaseHistory> chunk,
                              Partial partial) {
  ensure(chunk != nullptr && partial != nullptr,
         "SubApertureCache::insert: null chunk or partial");
  if (config_.capacity == 0) return;
  MutexLock lock(mutex_);
  if (index_.find(key) != index_.end()) return;  // first insert wins
  Entry entry;
  entry.key = key;
  entry.bytes = tile_bytes(*partial) + chunk->payload_bytes();
  entry.chunk = std::move(chunk);
  entry.partial = std::move(partial);
  bytes_ += entry.bytes;
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  if (inserts_) inserts_->add();
  while (lru_.size() > config_.capacity) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    if (evictions_) evictions_->add();
  }
  if (entries_gauge_) {
    entries_gauge_->set(static_cast<std::int64_t>(lru_.size()));
  }
  if (bytes_gauge_) bytes_gauge_->set(static_cast<std::int64_t>(bytes_));
}

std::size_t SubApertureCache::size() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

std::size_t SubApertureCache::bytes() const {
  MutexLock lock(mutex_);
  return bytes_;
}

void SubApertureCache::clear() {
  MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  if (entries_gauge_) entries_gauge_->set(0);
  if (bytes_gauge_) bytes_gauge_->set(0);
}

}  // namespace sarbp::streaming
