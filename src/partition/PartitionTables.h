//===- partition/PartitionTables.h - Once-per-preparation passes -*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two partitioning passes read the prepared program and the machine's
/// cluster layout but neither the move latency nor anything computed after
/// them, so every evaluation of one preparation that asks for the same key
/// computes the same result:
///
///  * the unlocked (unified-memory) RHOP assignment that Unified, Naive and
///    ProfileMax start from (paper Table 1), keyed by machine;
///  * GDP's data partition (paper §3.3), keyed by the cluster count and the
///    GDPOptions after the pipeline fills in the machine's memory capacity
///    and per-cluster capacity shares.
///
/// prepareProgram attaches one PartitionTables to every prepared program.
/// Copies of the preparation, PreparedProgramCache entries and gdpd's warm
/// cache all share it, and each key's slot is computed once, by its first
/// caller, behind a shared_future. A cell that must pay for its own passes
/// (the §4.5 compile-time table) runs on a copy with fresh tables:
/// `Copy.Tables = std::make_shared<PartitionTables>()`.
///
/// Records stay byte-identical whichever caller ran first: a slot keeps
/// the statistics its build recorded (counters, value series and the arena
/// high-water sample), and every caller, the builder included, merges them
/// into its own session. So `rhop.runs`, `gdp.runs` and RHOPRuns still
/// count algorithmic runs (§4.5).
///
/// A table holds at most Capacity slots and evicts the least recently
/// used: gdpd serves any move latency and cluster count for a cached
/// program. A build that throws propagates to every waiter and leaves no
/// slot behind, so the next caller rebuilds.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_PARTITION_PARTITIONTABLES_H
#define GDP_PARTITION_PARTITIONTABLES_H

#include "machine/MachineModel.h"
#include "partition/GlobalDataPartitioner.h"
#include "sched/ClusterAssignment.h"
#include "support/StatsRegistry.h"

#include <algorithm>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>

namespace gdp {

namespace detail {
/// Runs \p Build under a private telemetry session and merges what it
/// recorded into \p Out.
void recordSlotBuild(telemetry::StatsRegistry &Out,
                     const std::function<void()> &Build);
/// Merges \p Stats into the session installed on this thread, if any.
void replaySlotStats(const telemetry::StatsRegistry &Stats);
} // namespace detail

/// Thread-safe, bounded table of values computed once per key, for one
/// prepared program.
template <typename KeyT, typename ValueT> class SlotTable {
public:
  /// Slots kept per prepared program.
  static constexpr size_t Capacity = 8;

  /// One computed slot: the value and the statistics its build recorded.
  struct Slot {
    ValueT Value;
    telemetry::StatsRegistry Stats;
  };

  /// The slot for \p Key. The first caller computes it with \p Build under
  /// a private telemetry session; concurrent callers wait for that result.
  /// Every caller's installed session, if any, receives the slot's
  /// statistics. Rethrows whatever \p Build threw.
  std::shared_ptr<const Slot> get(const KeyT &Key,
                                  const std::function<ValueT()> &Build) {
    auto SameKey = [&](const Entry &E) { return E.Key == Key; };
    std::promise<std::shared_ptr<const Slot>> Promise;
    std::shared_future<std::shared_ptr<const Slot>> F;
    bool Mine = false;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      auto It = std::find_if(Entries.begin(), Entries.end(), SameKey);
      if (It != Entries.end()) {
        Entries.splice(Entries.begin(), Entries, It);
        F = It->F;
      } else {
        F = Promise.get_future().share();
        Entries.push_front({Key, F});
        // An evicted slot still in flight completes for its waiters, who
        // hold the future.
        if (Entries.size() > Capacity)
          Entries.pop_back();
        Mine = true;
      }
    }
    if (Mine) {
      try {
        auto Built = std::make_shared<Slot>();
        detail::recordSlotBuild(Built->Stats,
                                [&] { Built->Value = Build(); });
        Promise.set_value(std::move(Built));
      } catch (...) {
        {
          std::lock_guard<std::mutex> Lock(Mutex);
          Entries.remove_if(SameKey);
        }
        Promise.set_exception(std::current_exception());
      }
    }
    std::shared_ptr<const Slot> Result = F.get();
    detail::replaySlotStats(Result->Stats);
    return Result;
  }

  /// Resident slots.
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Entries.size();
  }

private:
  struct Entry {
    KeyT Key;
    std::shared_future<std::shared_ptr<const Slot>> F;
  };

  mutable std::mutex Mutex;
  std::list<Entry> Entries; ///< Front = most recently used.
};

/// What GDP's data partition depends on besides the preparation.
struct DataPartitionKey {
  unsigned NumClusters = 0;
  GDPOptions Opt;
  bool operator==(const DataPartitionKey &) const = default;
};

/// The shared passes of one prepared program.
struct PartitionTables {
  SlotTable<MachineModel, ClusterAssignment> Unlocked;
  SlotTable<DataPartitionKey, GDPResult> DataPartitions;
};

} // namespace gdp

#endif // GDP_PARTITION_PARTITIONTABLES_H
