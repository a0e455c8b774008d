//===- sim/Simulator.h - Trace-driven cycle simulator -----------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic trace-driven cycle simulator for the clustered VLIW —
/// the dynamic counterpart of the static accounting in
/// sched/ListScheduler. It replays an interpreter run's block executions
/// (the run's TraceSummary, profile/TraceSummary.h) through the
/// evaluation's own per-region schedules (PipelineResult::Schedule; it
/// never schedules), modelling machine state the static model leaves out:
///
///  * the intercluster bus as a bandwidth-limited queue (getMoveBandwidth()
///    issue slots per cycle at getMoveLatency() transit) — in-block moves
///    replay at their statically scheduled slots against the queue, and
///    queuing delay is a **bus-contention stall**;
///  * loop-invariant (hoisted) transfers injected at each dynamic loop
///    entry — the static model assumes they are free bus traffic in the
///    preheader; here they occupy real slots and any arrival past the
///    header block's end is a **move-latency stall**;
///  * home-cluster memory rules from partition/DataPlacement — a memory
///    operation whose dynamically accessed object is homed on another
///    cluster (a minority object of its access set) pays a request
///    transfer, a reservation of the home cluster's memory port (queuing
///    there is a **memory-port stall**), and for loads a reply transfer;
///    the added transit is a move-latency stall.
///
/// Blocks execute back to back, each spanning at least its static schedule
/// length, so simulated cycles are ≥ the profile-weighted static estimate
/// by construction. With a move latency and a store latency of at least
/// one cycle, every bus and port reservation of a block is released by the
/// block's end, so the next block always starts on an idle machine: the
/// simulator replays each distinct block execution once and multiplies
/// its outcome by its count. The simulation is sequential and pure (no
/// global state); callers parallelize across workloads/strategies and get
/// bit-identical results at any thread count. See docs/SIMULATOR.md.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SIM_SIMULATOR_H
#define GDP_SIM_SIMULATOR_H

#include "sched/BlockDFG.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gdp {

class ClusterAssignment;
class DataPlacement;
class MachineModel;
struct PipelineOptions;
struct PipelineResult;
struct PreparedProgram;
struct ProgramSchedule;
struct TraceSummary;

/// Outcome of one trace simulation.
struct SimResult {
  bool Ok = false;
  std::string Error; ///< Empty on success.
  /// Structured form of Error (site "sim", or the injected-fault site).
  /// Empty on success.
  std::vector<support::Diag> Diags;

  uint64_t Cycles = 0;     ///< Total dynamic cycles.
  uint64_t BlockExecs = 0; ///< Block executions of the trace.

  // Dynamic event counts.
  uint64_t BusTransfers = 0;     ///< All bus slot reservations.
  uint64_t HoistedTransfers = 0; ///< Loop-entry (preheader) transfers.
  uint64_t LocalAccesses = 0;    ///< Memory accesses served by the home
                                 ///< cluster of the executing operation.
  uint64_t RemoteAccesses = 0;   ///< Accesses to an object homed elsewhere.

  // Stall taxonomy (attributed at cause; see docs/SIMULATOR.md — the
  // categories may overlap in time, so they need not sum exactly to
  // Cycles minus the static estimate).
  uint64_t BusContentionStallCycles = 0; ///< Bus queuing delay.
  uint64_t MoveLatencyStallCycles = 0;   ///< Transit cycles the static
                                         ///< model did not account.
  uint64_t MemPortStallCycles = 0;       ///< Home-port queuing delay.

  /// Issue-slot utilization per cluster: operations issued there divided
  /// by Cycles × issue slots. Indexed by cluster id.
  std::vector<double> ClusterUtilization;
};

/// Replays \p Summary (built by Interpreter::setSummary's sink while
/// profiling \p PA's program) against
/// \p Schedule, the scheduleProgram result for \p CA on \p MM over \p PA's
/// region DFGs, with data homes from \p Placement. Schedules nothing
/// itself. Fails with an InputError when \p MM's move latency or store
/// latency is 0 (the one-replay-per-variant rule needs both to be at
/// least one cycle), when the summary does not match the program's
/// function or block counts, or when the schedule does not match its
/// function, block or operation counts. Emits sim.* telemetry when a
/// session is installed, including the work counter sim.variants.
/// Deterministic: equal inputs give bit-identical results.
SimResult simulateTrace(const ProgramAnalyses &PA,
                        const TraceSummary &Summary, const MachineModel &MM,
                        const ClusterAssignment &CA,
                        const ProgramSchedule &Schedule,
                        const DataPlacement &Placement);

/// Convenience wrapper: replays the schedule of an evaluated strategy \p R
/// (PipelineResult::Schedule) on a program prepared with trace capture
/// (prepareProgram(..., /*CaptureTrace=*/true)). \p Opt must be the
/// options \p R was evaluated with. Fails with a UsageError if \p PP holds
/// no analyses (its preparation failed) or no trace summary, or if \p R
/// carries no schedule (a failed or default-constructed result).
SimResult simulateStrategy(const PreparedProgram &PP,
                           const PipelineResult &R,
                           const PipelineOptions &Opt);

} // namespace gdp

#endif // GDP_SIM_SIMULATOR_H
