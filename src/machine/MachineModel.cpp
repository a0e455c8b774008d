//===- machine/MachineModel.cpp - Clustered VLIW machine model --------------===//

#include "machine/MachineModel.h"

#include <cassert>

using namespace gdp;

/// Itanium-like default latencies (paper §4.1: "latencies similar to the
/// Itanium"; 2-cycle loads per §4.1's unified-memory description).
static unsigned defaultLatency(Opcode Op) {
  switch (Op) {
  case Opcode::Mul:
    return 3;
  case Opcode::Div:
  case Opcode::Rem:
    return 12;
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FNeg:
  case Opcode::FAbs:
  case Opcode::FMin:
  case Opcode::FMax:
  case Opcode::FCmpEQ:
  case Opcode::FCmpLT:
  case Opcode::FCmpLE:
    return 4;
  case Opcode::FDiv:
    return 16;
  case Opcode::ItoF:
  case Opcode::FtoI:
    return 2;
  case Opcode::Load:
  case Opcode::Malloc:
    return 2;
  default:
    return 1;
  }
}

MachineModel MachineModel::makeDefault(unsigned NumClusters,
                                       unsigned MoveLatency) {
  assert(NumClusters >= 1 && "machine needs at least one cluster");
  MachineModel MM;
  for (unsigned C = 0; C != NumClusters; ++C)
    MM.addCluster(ClusterConfig());
  MM.setMoveLatency(MoveLatency);
  MM.setMoveBandwidth(1);
  return MM;
}

unsigned MachineModel::getLatency(Opcode Op) const {
  if (Op == Opcode::ICMove)
    return MoveLatency;
  unsigned Idx = static_cast<unsigned>(Op);
  if (Idx < LatencyOverride.size() && LatencyOverride[Idx] >= 0)
    return static_cast<unsigned>(LatencyOverride[Idx]);
  return defaultLatency(Op);
}

void MachineModel::setLatency(Opcode Op, unsigned Cycles) {
  unsigned Idx = static_cast<unsigned>(Op);
  if (Idx >= LatencyOverride.size())
    LatencyOverride.resize(Idx + 1, -1);
  LatencyOverride[Idx] = static_cast<int>(Cycles);
}
