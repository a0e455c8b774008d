//===- partition/PreparedCache.h - Shared prepared-program cache -*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A keyed, process-wide cache of prepared programs. Preparation (verify +
/// points-to + profiling interpretation + analyses) is by far the most
/// expensive per-workload step and also *mutates* the program (profiled
/// heap sizes are applied), so a program must be prepared exactly once
/// and then treated as immutable. The cache enforces both: the first
/// request for a key builds and prepares the workload; every later
/// request — from any thread, any (strategy, latency) cell, any bench or
/// test in the same process — shares the same immutable result.
///
/// Residency is bounded: entries are kept in LRU order and, once the
/// configurable capacity is exceeded, the least-recently-used *completed*
/// entry is dropped (in-flight builds are pinned — their waiters hold the
/// future). Evicted entries simply rebuild on the next request. Hits,
/// misses and evictions are reported through telemetry
/// (`prepared_cache.hits` / `.misses` / `.evictions`), along with a
/// `prepared_cache.resident` value series sampled after every lookup.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_PARTITION_PREPAREDCACHE_H
#define GDP_PARTITION_PREPAREDCACHE_H

#include "partition/Pipeline.h"

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gdp {

/// One cached preparation: the owning program plus its prepared view
/// (whose `P` points into `Program`). Shared and immutable after build.
struct CachedPreparation {
  std::shared_ptr<Program> Prog;
  PreparedProgram PP;
};

/// Thread-safe keyed LRU cache of prepared programs. Distinct keys build
/// concurrently; concurrent requests for the same key build it once (the
/// losers block on the winner's future).
class PreparedProgramCache {
public:
  /// Default entry cap: generous — the full bench suite (every workload in
  /// trace and no-trace flavors) fits with room to spare.
  static constexpr size_t DefaultCapacity = 64;

  /// The process-wide instance used by the bench harness and gdptool.
  static PreparedProgramCache &global();

  /// Returns the cached preparation of \p Name (built with \p Build and
  /// prepared with the given options on first use). The result is shared:
  /// callers must not mutate the program. A failed preparation (PP.Ok
  /// false) is cached too — it is deterministic. When \p Build returns
  /// null, the diagnostics it appended become the entry's PP.Diags, so
  /// every later hit reports them without loading the program again.
  /// When \p Build or the preparation throws, this call and every waiter
  /// on the key rethrow it, and the key is dropped so the next request
  /// builds again.
  std::shared_ptr<const CachedPreparation>
  get(const std::string &Name, uint64_t MaxSteps, bool CaptureTrace,
      const std::function<std::unique_ptr<Program>(
          std::vector<support::Diag> &Diags)> &Build);

  /// Maximum resident entries (0 = unbounded).
  size_t capacity() const;

  /// Changes the entry cap; evicts immediately if already over it.
  void setCapacity(size_t Cap);

  /// Drops every cached entry (tests).
  void clear();

  /// Number of resident entries.
  size_t size() const;

  /// Evictions performed over this cache's lifetime.
  uint64_t evictionCount() const;

private:
  using Future = std::shared_future<std::shared_ptr<const CachedPreparation>>;

  struct Entry {
    Future F;
    std::list<std::string>::iterator LruIt;
  };

  /// Drops ready LRU entries until size fits the cap. Lock must be held.
  /// \p Protect is never evicted (the key just inserted).
  void evictLocked(const std::string &Protect);

  mutable std::mutex Mutex;
  std::map<std::string, Entry> Entries;
  std::list<std::string> Lru; ///< Front = most recently used.
  size_t Capacity = DefaultCapacity;
  uint64_t Evictions = 0;
};

} // namespace gdp

#endif // GDP_PARTITION_PREPAREDCACHE_H
