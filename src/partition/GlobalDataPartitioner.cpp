//===- partition/GlobalDataPartitioner.cpp - GDP first pass -----------------===//

#include "partition/GlobalDataPartitioner.h"

#include "graph/MultilevelPartitioner.h"
#include "ir/Program.h"
#include "profile/ProfileData.h"
#include "sched/BlockDFG.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace gdp;

/// Allowed imbalance of the secondary (operation count) constraint. The
/// paper balances only data sizes in this pass (operations are re-placed
/// by the second pass anyway), so it is effectively unconstrained.
constexpr double OpBalanceTolerance = 8.0;

GDPResult gdp::runGlobalDataPartitioning(const ProgramAnalyses &PA,
                                         const ProfileData &Prof,
                                         unsigned NumClusters,
                                         const GDPOptions &Opt) {
  const Program &P = PA.program();
  ProgramGraph PG(PA, Prof);
  AccessMerge Merge(PG, P, Opt.Policy);

  // --- One partition-graph node per merged group; its weights are
  // ⟨data bytes, operation count⟩, row-major in Weights.
  std::vector<uint64_t> Weights(2 * size_t{Merge.getNumGroups()});
  for (unsigned Grp = 0; Grp != Merge.getNumGroups(); ++Grp) {
    for (int Obj : Merge.objectsOfGroup(Grp))
      Weights[2 * Grp] +=
          P.getObject(static_cast<unsigned>(Obj)).getSizeBytes();
    for (unsigned Node : Merge.nodesOfGroup(Grp))
      if (PG.getOp(Node))
        ++Weights[2 * Grp + 1];
  }

  // --- Register-flow edges between groups (the graph drops the ones
  // inside a group).
  std::vector<CSRGraph::Edge> Edges;
  Edges.reserve(PG.edges().size());
  for (const auto &E : PG.edges())
    Edges.push_back({Merge.groupOfNode(E.A), Merge.groupOfNode(E.B), E.W});

  // --- Access edges between memory operations and the objects they touch,
  // weighted by dynamic access counts. Intra-group under the access-pattern
  // policies (no-op); they carry the op↔object affinity when merging is
  // disabled.
  for (unsigned Node = 0; Node != PG.getNumNodes(); ++Node) {
    const Operation *Op = PG.getOp(Node);
    if (!Op || Op->getAccessSet().empty())
      continue;
    auto [F, OpId] = PG.funcOpOf(Node);
    for (int Obj : Op->getAccessSet()) {
      unsigned A = Merge.groupOfNode(Node);
      unsigned B = Merge.groupOfObject(static_cast<unsigned>(Obj));
      if (A == B)
        continue;
      Edges.push_back(
          {A, B, std::max<uint64_t>(1, Prof.getAccessCount(F, OpId, Obj))});
    }
  }

  // --- Capacity-aware byte balance: the constraint is there to make the
  // data fit each cluster's local memory, so when a capacity is known the
  // effective tolerance grows with the headroom (up to "one cluster could
  // hold everything" — beyond that extra slack buys nothing). Without it,
  // a program whose footprint is a fraction of the memory still gets
  // force-split on bytes, severing high-affinity object/op groups for no
  // benefit (crc32 and pegwit regress >1.3× against the exhaustive
  // optimum exactly this way; see tests/DifferentialTests.cpp).
  uint64_t TotalBytes = 0;
  for (unsigned Obj = 0; Obj != P.getNumObjects(); ++Obj)
    TotalBytes += P.getObject(Obj).getSizeBytes();

  double MemTol = Opt.MemBalanceTolerance;
  if (Opt.MemCapacityBytes) {
    if (TotalBytes) {
      double MeanPerCluster =
          static_cast<double>(TotalBytes) / NumClusters;
      double ImpliedTol =
          static_cast<double>(Opt.MemCapacityBytes) / MeanPerCluster - 1.0;
      ImpliedTol = std::min(ImpliedTol, static_cast<double>(NumClusters - 1));
      MemTol = std::max(MemTol, ImpliedTol);
    }
  }

  // --- Cut with the multilevel partitioner.
  GraphPartitionOptions GOpt;
  GOpt.NumParts = NumClusters;
  GOpt.Tolerances = {MemTol, OpBalanceTolerance};
  GOpt.PartCapacityShares = Opt.ClusterCapacityShares;
  CSRGraph G(/*NumConstraints=*/2, Weights, Edges);
  GraphPartition Part = partitionGraph(G, GOpt);

  GDPResult Result;
  Result.CutWeight = Part.CutWeight;
  Result.NumGroups = Merge.getNumGroups();
  Result.Placement = DataPlacement(P.getNumObjects());
  for (unsigned Obj = 0; Obj != P.getNumObjects(); ++Obj)
    Result.Placement.setHome(
        Obj, static_cast<int>(Part.Assignment[Merge.groupOfObject(Obj)]));

  // --- Hard capacity check. A cut that leaves some cluster over capacity
  // is only *this placement's* fault when a fitting assignment could exist
  // at all; a footprint above NumClusters × capacity cannot fit anywhere,
  // so capacity degrades to advisory (warning) and the result stands.
  if (Opt.MemCapacityBytes) {
    std::vector<uint64_t> ClusterBytes =
        Result.Placement.bytesPerCluster(P, NumClusters);
    uint64_t Worst =
        *std::max_element(ClusterBytes.begin(), ClusterBytes.end());
    if (Worst > Opt.MemCapacityBytes) {
      uint64_t Budget = Opt.MemCapacityBytes * NumClusters;
      support::Diag D =
          TotalBytes <= Budget
              ? support::errorDiag(support::StatusCode::Infeasible,
                                   "gdp.place",
                                   "placement exceeds cluster memory "
                                   "capacity")
              : support::warnDiag(support::StatusCode::Infeasible,
                                  "gdp.place",
                                  "program footprint exceeds total cluster "
                                  "memory; capacity treated as advisory");
      D.with("capacity_bytes", Opt.MemCapacityBytes)
          .with("worst_cluster_bytes", Worst)
          .with("total_bytes", TotalBytes)
          .with("clusters", static_cast<uint64_t>(NumClusters));
      if (TotalBytes <= Budget)
        Result.Feasible = false;
      Result.Diags.push_back(std::move(D));
    }
  }

  telemetry::counter("gdp.runs");
  telemetry::counter("gdp.graph_nodes", G.getNumNodes());
  telemetry::counter("gdp.merged_groups", Merge.getNumGroups());
  telemetry::counter("gdp.objects_placed", P.getNumObjects());
  telemetry::value("gdp.cut_weight", static_cast<double>(Part.CutWeight));
  return Result;
}
