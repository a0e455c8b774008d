//===- tests/ReferenceSimulator.h - Event-by-event sim oracle --*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event-by-event trace replay that sim/Simulator's one replay per
/// distinct block execution replaced: it walks the raw trace block event by
/// block event, carrying the bus and memory-port queues, the per-operation
/// access-stream cursors and the last block per function id across blocks.
/// Slow (linear in the trace per call) but obvious;
/// tests/SimOracleTests.cpp checks that the simulator's SimResult equals
/// this one field by field.
///
/// At every block start the replay also counts whether some bus or port
/// slot is still reserved at or past the block's start cycle: the drain
/// invariant the simulator's per-variant replay rests on.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_TESTS_REFERENCESIMULATOR_H
#define GDP_TESTS_REFERENCESIMULATOR_H

#include "sim/Simulator.h"

#include <cstdint>

namespace gdp {

struct ExecTrace;

/// What the reference replay returns besides the SimResult.
struct ReferenceSimulation {
  SimResult S;
  /// Block executions that started while a bus or port slot was still
  /// reserved at or after their start cycle (0 when every block drains).
  uint64_t UndrainedStarts = 0;
};

/// Replays \p Trace event by event; same inputs and errors as
/// simulateTrace (with the raw trace instead of its summary), except that
/// any move or store latency is accepted.
ReferenceSimulation referenceSimulate(const ProgramAnalyses &PA,
                                      const ExecTrace &Trace,
                                      const MachineModel &MM,
                                      const ClusterAssignment &CA,
                                      const ProgramSchedule &Schedule,
                                      const DataPlacement &Placement);

} // namespace gdp

#endif // GDP_TESTS_REFERENCESIMULATOR_H
