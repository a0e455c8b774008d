//===- partition/UnlockedRHOP.h - Shared unlocked RHOP results --*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unified, Naive and ProfileMax's first pass (paper Table 1) all run RHOP
/// with no locks, the unified-memory assumption, on the same program,
/// profile and machine, so they all compute the same assignment.
/// prepareProgram attaches one UnlockedRHOPTable to every prepared program.
/// Copies of the preparation, PreparedProgramCache entries and gdpd's warm
/// cache all share it, and each machine's slot is computed once, by its
/// first caller, behind a shared_future.
///
/// Records stay byte-identical whichever caller ran first: a slot keeps
/// the telemetry its run recorded (the rhop.* and arena.* counters and the
/// arena high-water sample), and every caller, the builder included,
/// merges it into its own session. So `rhop.runs` and RHOPRuns still count
/// algorithmic runs (§4.5).
///
/// A table holds at most Capacity slots and evicts the least recently
/// used: gdpd serves any move latency and cluster count for a cached
/// program. A build that throws propagates to every waiter and leaves no
/// slot behind, so the next caller rebuilds.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_PARTITION_UNLOCKEDRHOP_H
#define GDP_PARTITION_UNLOCKEDRHOP_H

#include "machine/MachineModel.h"
#include "partition/RHOP.h"
#include "support/Telemetry.h"

#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>

namespace gdp {

/// One computed slot: the assignment and the telemetry of the run that
/// produced it.
struct UnlockedRHOP {
  ClusterAssignment Assignment;
  telemetry::TelemetrySession Telemetry;
};

/// Thread-safe, bounded table of unlocked RHOP results for one prepared
/// program, keyed by machine.
class UnlockedRHOPTable {
public:
  /// Slots kept per prepared program.
  static constexpr size_t Capacity = 8;

  /// The slot for \p MM. The first caller computes it with
  /// \p Run under a private telemetry session; concurrent callers wait for
  /// that result. Every caller's installed session, if any, receives the
  /// slot's telemetry. Rethrows whatever \p Run threw.
  std::shared_ptr<const UnlockedRHOP>
  get(const MachineModel &MM, const std::function<ClusterAssignment()> &Run);

  /// Resident slots.
  size_t size() const;

private:
  struct Slot {
    MachineModel MM;
    std::shared_future<std::shared_ptr<const UnlockedRHOP>> F;
  };

  mutable std::mutex Mutex;
  std::list<Slot> Slots; ///< Front = most recently used.
};

} // namespace gdp

#endif // GDP_PARTITION_UNLOCKEDRHOP_H
