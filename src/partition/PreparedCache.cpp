//===- partition/PreparedCache.cpp - Shared prepared-program cache ----------===//

#include "partition/PreparedCache.h"

#include "support/Telemetry.h"

#include <chrono>

using namespace gdp;

PreparedProgramCache &PreparedProgramCache::global() {
  static PreparedProgramCache Cache;
  return Cache;
}

void PreparedProgramCache::evictLocked(const std::string &Protect) {
  if (Capacity == 0)
    return;
  // Walk from the LRU end, skipping entries that are still building
  // (their future is not ready — dropping the map entry would let a
  // concurrent request start a second build of the same key) and the
  // just-inserted key.
  auto It = Lru.end();
  while (Entries.size() > Capacity && It != Lru.begin()) {
    --It;
    const std::string &Key = *It;
    if (Key == Protect)
      continue;
    auto EIt = Entries.find(Key);
    bool Ready = EIt->second.F.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready;
    if (!Ready)
      continue;
    It = Lru.erase(It);
    Entries.erase(EIt);
    ++Evictions;
    telemetry::counter("prepared_cache.evictions");
  }
}

std::shared_ptr<const CachedPreparation> PreparedProgramCache::get(
    const std::string &Name, bool CaptureTrace,
    const std::function<std::unique_ptr<Program>(
        std::vector<support::Diag> &Diags)> &Build) {
  std::string Key = Name + (CaptureTrace ? "|trace" : "|notrace");

  std::promise<std::shared_ptr<const CachedPreparation>> Promise;
  Future Mine;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(Key);
    if (It != Entries.end()) {
      if (telemetry::enabled()) {
        telemetry::counter("prepared_cache.hits");
        telemetry::value("prepared_cache.resident",
                         static_cast<double>(Entries.size()));
      }
      // Touch: this key is now the most recently used.
      Lru.splice(Lru.begin(), Lru, It->second.LruIt);
      Future Shared = It->second.F;
      // Wait outside the lock: another thread may still be preparing.
      return Shared.get();
    }
    Mine = Promise.get_future().share();
    Lru.push_front(Key);
    Entries.emplace(Key, Entry{Mine, Lru.begin()});
    evictLocked(Key);
    if (telemetry::enabled())
      telemetry::value("prepared_cache.resident",
                       static_cast<double>(Entries.size()));
  }
  if (telemetry::enabled())
    telemetry::counter("prepared_cache.misses");

  try {
    auto Built = std::make_shared<CachedPreparation>();
    Built->Prog = Build(Built->PP.Diags);
    if (Built->Prog)
      Built->PP = prepareProgram(*Built->Prog, /*MaxSteps=*/200000000ULL,
                                   CaptureTrace);
    else
      Built->PP.Error = "workload build failed";
    Promise.set_value(Built);
  } catch (...) {
    // A throw is not a deterministic outcome to cache: drop the entry so
    // the next request builds again, and hand this one's waiters the
    // exception.
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      auto It = Entries.find(Key);
      if (It != Entries.end()) {
        Lru.erase(It->second.LruIt);
        Entries.erase(It);
      }
    }
    Promise.set_exception(std::current_exception());
  }
  return Mine.get();
}

size_t PreparedProgramCache::capacity() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Capacity;
}

void PreparedProgramCache::setCapacity(size_t Cap) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Capacity = Cap;
  evictLocked(std::string());
}

void PreparedProgramCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.clear();
  Lru.clear();
}

size_t PreparedProgramCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

uint64_t PreparedProgramCache::evictionCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Evictions;
}
