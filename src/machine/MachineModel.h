//===- machine/MachineModel.h - Clustered VLIW machine model ----*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Description of the target multicluster VLIW processor: per-cluster
/// function units, operation latencies, the intercluster interconnect and
/// the per-cluster data-memory capacity. Whether memory is unified or
/// partitioned is not a machine property: it is what distinguishes the
/// Unified strategy from the others (partition/Pipeline.h).
///
/// The paper's evaluation machine (§4.1) is the default: 2 homogeneous
/// clusters, each with 2 integer, 1 float, 1 memory and 1 branch unit,
/// Itanium-like latencies, 100%-hit partitioned caches with 2-cycle loads,
/// and an interconnect carrying 1 move per cycle at a latency of 1, 5 or
/// 10 cycles (5 is the paper's default).
///
//===----------------------------------------------------------------------===//

#ifndef GDP_MACHINE_MACHINEMODEL_H
#define GDP_MACHINE_MACHINEMODEL_H

#include "ir/Opcode.h"

#include <cstdint>
#include <vector>

namespace gdp {

/// Function-unit mix of one cluster.
struct ClusterConfig {
  unsigned NumInteger = 2;
  unsigned NumFloat = 1;
  unsigned NumMemory = 1;
  unsigned NumBranch = 1;

  unsigned count(FUKind K) const {
    switch (K) {
    case FUKind::Integer:
      return NumInteger;
    case FUKind::Float:
      return NumFloat;
    case FUKind::Memory:
      return NumMemory;
    case FUKind::Branch:
      return NumBranch;
    case FUKind::Interconnect:
      return 0; // The bus is machine-global, not per-cluster.
    }
    return 0;
  }

  bool operator==(const ClusterConfig &O) const = default;
};

/// A complete machine description.
class MachineModel {
public:
  /// The paper's 2-cluster evaluation machine with the given intercluster
  /// move latency.
  static MachineModel makeDefault(unsigned NumClusters = 2,
                                  unsigned MoveLatency = 5);

  bool operator==(const MachineModel &O) const = default;

  unsigned getNumClusters() const {
    return static_cast<unsigned>(Clusters.size());
  }
  const ClusterConfig &getCluster(unsigned C) const { return Clusters[C]; }
  void setCluster(unsigned C, const ClusterConfig &Cfg) { Clusters[C] = Cfg; }
  void addCluster(const ClusterConfig &Cfg) { Clusters.push_back(Cfg); }

  unsigned getFUCount(unsigned Cluster, FUKind K) const {
    return Clusters[Cluster].count(K);
  }

  /// Latency in cycles of one intercluster move.
  unsigned getMoveLatency() const { return MoveLatency; }
  void setMoveLatency(unsigned L) { MoveLatency = L; }

  /// Intercluster moves that may issue per cycle (network bandwidth).
  unsigned getMoveBandwidth() const { return MoveBandwidth; }
  void setMoveBandwidth(unsigned B) { MoveBandwidth = B; }

  /// Bytes of data memory per cluster. The byte-balance constraint of the
  /// global data partitioner exists to make the data fit each cluster's
  /// local memory (paper §3.2); when the program's footprint is far below
  /// this capacity the constraint is relaxed accordingly instead of
  /// forcing a balanced split that costs cycles for nothing. 0 = capacity
  /// not modeled (the partitioner falls back to pure relative balance).
  uint64_t getClusterMemoryBytes() const { return ClusterMemoryBytes; }

  /// Latency in cycles of \p Op on this machine.
  unsigned getLatency(Opcode Op) const;
  /// Overrides the latency of \p Op.
  void setLatency(Opcode Op, unsigned Cycles);

private:
  std::vector<ClusterConfig> Clusters;
  unsigned MoveLatency = 5;
  unsigned MoveBandwidth = 1;
  uint64_t ClusterMemoryBytes = 64 * 1024; ///< Typical clustered-VLIW SRAM.
  std::vector<int> LatencyOverride; // indexed by opcode; -1 = default
};

} // namespace gdp

#endif // GDP_MACHINE_MACHINEMODEL_H
