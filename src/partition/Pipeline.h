//===- partition/Pipeline.h - End-to-end partitioning pipeline --*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level public API: prepare a program (verify, run points-to
/// annotation, profile it, build its analyses) and evaluate one of the
/// paper's four object/computation partitioning strategies on it
/// (Table 1):
///
///   GDP        — global data partitioning, then RHOP with locked memory ops
///   ProfileMax — RHOP assuming unified memory, greedy object assignment by
///                dynamic access frequency, then a second locked RHOP run
///   Naive      — RHOP assuming unified memory; objects placed by majority
///                access; required moves inserted as a postpass
///   Unified    — RHOP assuming unified memory, objects left unplaced: a
///                single multiported memory (upper-bound configuration)
///
/// Every strategy reports total cycles (schedule length × block frequency),
/// dynamic/static intercluster move counts and the data placement. How long
/// each phase took (the §4.5 compile-time comparison) is recorded by the
/// `pipeline.*` telemetry spans of the installed session; sim/Evaluate.h
/// gives every evaluation its own.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_PARTITION_PIPELINE_H
#define GDP_PARTITION_PIPELINE_H

#include "machine/MachineModel.h"
#include "partition/GlobalDataPartitioner.h"
#include "partition/RHOP.h"
#include "profile/ProfileData.h"
#include "sched/ClusterAssignment.h"
#include "sched/ListScheduler.h"
#include "support/Budget.h"
#include "support/Status.h"

#include <memory>
#include <string>
#include <vector>

namespace gdp {

class ProgramAnalyses;
struct TraceSummary;
struct PartitionTables;

namespace telemetry {
class StatsRegistry;
} // namespace telemetry

/// The four evaluated strategies (paper Table 1).
enum class StrategyKind {
  GDP,
  ProfileMax,
  Naive,
  Unified,
};

/// Human-readable strategy name.
const char *strategyName(StrategyKind K);

/// Parses the lower-case spelling the CLI and the serve protocol use
/// ("gdp", "profilemax", "naive", "unified") into \p Out. False, with
/// \p Out untouched, for any other name.
bool parseStrategyName(const std::string &Name, StrategyKind &Out);

/// ProfileMax: objects spill to other clusters once the preferred memory
/// exceeds (1 + this tolerance) × ideal bytes (paper §4.1: "a memory
/// balance is kept by forcing objects to be placed in other clusters when
/// the preferred memory reaches a certain threshold").
constexpr double ProfileMaxBalanceTolerance = 0.125;

/// The largest intercluster move latency an evaluation accepts, in
/// cycles: 100× the paper's largest (10). runStrategy fails with an
/// InputError for a machine whose move latency is 0 or above this, so no
/// request can make the schedules' cycle tables grow without bound.
constexpr unsigned MaxMoveLatency = 1000;

/// The largest cluster count an evaluation accepts. The partitioners' cost
/// grows roughly with the square of the count; runStrategy fails with an
/// InputError for a machine with 0 clusters or more than this, as gdpd's
/// request decoder and gdptool's --clusters do.
constexpr unsigned MaxClusters = 64;

/// Options controlling one pipeline evaluation.
struct PipelineOptions {
  StrategyKind Strategy = StrategyKind::GDP;
  unsigned NumClusters = 2; ///< 1..MaxClusters.
  unsigned MoveLatency = 5; ///< Paper default (§4.1); 1..MaxMoveLatency.
  GDPOptions DataOpt;
  /// Optional fully custom machine (overrides NumClusters/MoveLatency).
  const MachineModel *Machine = nullptr;
  /// Optional evaluation budget, polled at phase boundaries (between
  /// degradation-ladder attempts and before the final schedule). When it
  /// expires mid-evaluation the result comes back Failed with a
  /// BudgetExhausted/Cancelled diagnostic instead of running to
  /// completion — the serving layer (src/serve) derives this from each
  /// request's deadline. Must outlive the runStrategy call.
  const support::Budget *EvalBudget = nullptr;
};

/// A verified, annotated and profiled program ready for partitioning.
struct PreparedProgram {
  Program *P = nullptr;
  ProfileData Prof;
  bool Ok = false;
  std::string Error; ///< Verifier/points-to/interpreter failure, if any.
  /// Structured form of Error: verifier diagnostics verbatim, or one
  /// diagnostic for a points-to/profiling failure. Empty on success.
  std::vector<support::Diag> Diags;
  /// Verify + points-to + profiling + analyses wall clock.
  double PrepareSeconds = 0;
  /// Summary of the profiling run's block executions
  /// (profile/TraceSummary.h), the cycle simulator's input, built during
  /// that run: present only when the program was prepared with
  /// CaptureTrace and preparation succeeded. Shared so a PreparedProgram
  /// stays cheap to copy.
  std::shared_ptr<const TraceSummary> Summary;
  /// CFG, loops and region DFGs of every function (sched/BlockDFG.h), the
  /// input of RHOP, the scheduler and the simulator. Built once by
  /// prepareProgram on success and shared by every copy; null when
  /// preparation failed.
  std::shared_ptr<const ProgramAnalyses> Analyses;
  /// The passes every evaluation of this preparation shares: the unlocked
  /// RHOP assignment Unified, Naive and ProfileMax start from, per
  /// machine, and GDP's data partition, per cluster count and data
  /// options (partition/PartitionTables.h). Attached by prepareProgram on
  /// success and shared by every copy; a copy given fresh tables shares
  /// nothing with the original.
  std::shared_ptr<PartitionTables> Tables;
};

/// Verifies \p P, annotates memory access sets (points-to), interprets the
/// program to collect the profile, applies the profiled heap sizes, and
/// builds the program's analyses (CFG, loops, region DFGs). With
/// \p CaptureTrace the profiling run also builds the summary of its block
/// executions (profile/TraceSummary.h) that sim/Simulator replays.
PreparedProgram prepareProgram(Program &P, uint64_t MaxSteps = 200000000ULL,
                               bool CaptureTrace = false);

/// Result of evaluating one strategy.
struct PipelineResult {
  uint64_t Cycles = 0;
  uint64_t DynamicMoves = 0;
  uint64_t StaticMoves = 0;
  DataPlacement Placement; ///< All homes -1 under Unified.
  ClusterAssignment Assignment;
  /// The final schedule of Assignment, block by block: the one schedule
  /// Cycles and the moves were folded from, and the one the simulator
  /// replays. Empty when Failed.
  ProgramSchedule Schedule;
  unsigned RHOPRuns = 0; ///< Detailed-partitioner runs (§4.5).

  /// What the caller asked for.
  StrategyKind RequestedStrategy = StrategyKind::GDP;
  /// The strategy that actually produced the result. Differs from
  /// RequestedStrategy when the degradation chain demoted the run
  /// (GDP → ProfileMax → Naive; docs/ROBUSTNESS.md).
  StrategyKind EffectiveStrategy = StrategyKind::GDP;
  /// True when no usable evaluation was produced (preparation failed, the
  /// chain was exhausted, or the final schedule estimate failed). Cycles,
  /// moves, placement and assignment are then meaningless.
  bool Failed = false;
  /// True when any recovery action was taken (a relaxed-tolerance retry
  /// or a strategy demotion), even if the final result is usable.
  bool Degraded = false;
  /// Number of strategy demotions taken (0 on a clean run).
  unsigned Fallbacks = 0;
  /// Everything that went wrong (and how it was recovered), in order.
  std::vector<support::Diag> Diags;

  bool ok() const { return !Failed; }
};

/// Evaluates one strategy on a prepared program. Total: never throws or
/// asserts on bad input — an unprepared program, a cluster count outside
/// [1, MaxClusters], a move latency outside [1, MaxMoveLatency] or an
/// exhausted degradation chain comes back as a Failed result carrying
/// diagnostics.
PipelineResult runStrategy(const PreparedProgram &PP,
                           const PipelineOptions &Opt);

/// Partitioning seconds recorded in \p Stats, the telemetry of one
/// evaluation: its `pipeline.data_partition` and `pipeline.rhop` timers,
/// the paper's §4.5 compile time (the final schedule is not part of it).
double partitionSeconds(const telemetry::StatsRegistry &Stats);

/// Builds the machine the options describe: Opt.Machine when set, else
/// the paper's machine with Opt.NumClusters and Opt.MoveLatency.
MachineModel machineFor(const PipelineOptions &Opt);

} // namespace gdp

#endif // GDP_PARTITION_PIPELINE_H
