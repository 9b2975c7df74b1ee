// Sub-aperture partial-image cache: fixed-size pulse chunks backprojected
// once into partial images, keyed like formation plans on (scene geometry,
// chunk pulse-geometry signature) and shared across overlapping windows
// and concurrent streaming sessions over the same scene (DESIGN.md §13).
//
// The cache generalizes the service's plan cache from "reusable setup"
// (BlockTables) to "reusable compute" (the chunk's swept tile): a window
// slide that re-admits a chunk another session already swept pays O(1),
// not O(chunk). Keys reuse service::PlanKey — the grid geometry (including
// the scene centre), region, ASR block size, and the FNV-1a pulse-geometry
// signature.
//
// A key says nothing about sample values, and its signature is a hash, so
// every entry keeps the chunk it was swept from: a key hit is served only
// when the looked-up chunk equals that one exactly (sampling constants,
// every pulse's position and start range, every sample's bytes). Any other
// key hit is counted as a collision and served as a miss — never a wrong
// image.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/thread_annotations.h"

#include "backprojection/soa_tile.h"
#include "common/region.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "obs/metrics.h"
#include "service/plan_cache.h"
#include "sim/phase_history.h"

namespace sarbp::streaming {

struct SubApertureCacheConfig {
  /// Cached chunk partials; 0 disables retention (every lookup misses —
  /// the bench's cache-off baseline).
  std::size_t capacity = 64;
  /// Metrics sink; null selects the process-global obs::registry().
  obs::Registry* metrics = nullptr;
  /// Test seam: replaces the pulse-geometry signature used in keys (e.g. a
  /// constant function to force collisions). Null selects
  /// service::pulse_geometry_signature.
  std::function<std::uint64_t(const sim::PhaseHistory&)> signature_fn;
};

/// Thread-safe LRU cache of chunk partial images.
///
/// Metrics (under the configured registry):
///   streaming.cache.{hits,misses,evictions,collisions,inserts} counters,
///   streaming.cache.{entries,bytes} gauges.
class SubApertureCache {
 public:
  using Partial = std::shared_ptr<const bp::SoaTile>;

  explicit SubApertureCache(SubApertureCacheConfig config = {});

  SubApertureCache(const SubApertureCache&) = delete;
  SubApertureCache& operator=(const SubApertureCache&) = delete;

  /// Key of `chunk`'s partial under the session's scene geometry.
  [[nodiscard]] service::PlanKey make_key(const geometry::ImageGrid& grid,
                                          const Region& region, Index block_w,
                                          Index block_h,
                                          const sim::PhaseHistory& chunk) const;

  /// Lookup. Null on miss; a key hit whose cached chunk differs from
  /// `chunk` (geometry or samples) is a collision — counted, and reported
  /// as a miss.
  [[nodiscard]] Partial find(const service::PlanKey& key,
                             const sim::PhaseHistory& chunk);

  /// Publishes the partial swept from `chunk`, which the entry keeps for
  /// the exact comparison on lookup. First insert wins when concurrent
  /// sessions race to compute the same chunk; eviction is LRU.
  void insert(const service::PlanKey& key,
              std::shared_ptr<const sim::PhaseHistory> chunk, Partial partial);

  [[nodiscard]] std::size_t size() const;
  /// Retained bytes: each entry's partial tile plus its chunk's samples.
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::size_t capacity() const { return config_.capacity; }
  void clear();

 private:
  struct Entry {
    service::PlanKey key;
    std::shared_ptr<const sim::PhaseHistory> chunk;
    Partial partial;
    std::size_t bytes = 0;
  };

  const SubApertureCacheConfig config_;

  mutable Mutex mutex_{SARBP_LOCK_LEVEL("streaming.cache")};
  /// Front = most recently used.
  std::list<Entry> lru_ SARBP_GUARDED_BY(mutex_);
  std::unordered_map<service::PlanKey, std::list<Entry>::iterator,
                     service::PlanKeyHash>
      index_ SARBP_GUARDED_BY(mutex_);
  std::size_t bytes_ SARBP_GUARDED_BY(mutex_) = 0;

  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* collisions_ = nullptr;
  obs::Counter* inserts_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
};

}  // namespace sarbp::streaming
