//===- sched/BlockDFG.h - Per-region data-flow graph ------------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data-flow graph of one basic block (the scheduling/partitioning
/// region): data edges from def-use chains, memory ordering edges between
/// conflicting memory operations, and an issue-order edge from every
/// operation to the terminator. Values flowing in from other blocks are
/// recorded as live-ins together with their (external) defining operation,
/// so the scheduler can charge intercluster moves when the producer lives
/// on a different cluster.
///
/// ProgramAnalyses bundles, per function, the CFG, the loop nesting, every
/// block's DFG and the def-use pairs of the program-level graph.
/// prepareProgram builds it once per prepared program; GDP's program graph,
/// RHOP, the list scheduler and the simulator read that one bundle instead
/// of rebuilding the analyses per call.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SCHED_BLOCKDFG_H
#define GDP_SCHED_BLOCKDFG_H

#include "analysis/CFG.h"
#include "analysis/LoopInfo.h"

#include <vector>

namespace gdp {

class BasicBlock;
class DefUse;
class Function;
class OpIndex;
class Operation;
class Program;

/// Data-flow graph over the operations of one block. Nodes are local
/// indices [0, size) in program order.
class BlockDFG {
public:
  enum class EdgeKind {
    Data,  ///< Register flow; latency of the producer, plus a move if the
           ///< endpoints are on different clusters.
    Mem,   ///< Memory/call ordering; consumer issues at least 1 cycle later.
    Order, ///< Issue order only (operation → terminator).
  };

  struct Edge {
    unsigned From;
    unsigned To;
    EdgeKind Kind;
  };

  /// A value flowing into the block: local consumer + external producer.
  struct LiveIn {
    unsigned LocalUser; ///< Local index of the consuming operation.
    int DefOpId;        ///< Producing operation id elsewhere in the
                        ///< function, or -1 for parameters (no move cost).
    bool Hoistable = false; ///< Loop-invariant in this block's loop: a
                            ///< cross-cluster transfer is paid per loop
                            ///< entry, not per iteration.
  };

  /// Builds the region DFG. When \p LI is given, live-ins of values that
  /// are invariant in this block's innermost loop are marked hoistable.
  BlockDFG(const BasicBlock &BB, const DefUse &DU, const OpIndex &OI,
           const LoopInfo *LI = nullptr);

  unsigned size() const { return static_cast<unsigned>(Ops.size()); }
  const Operation &getOp(unsigned Local) const { return *Ops[Local]; }

  const std::vector<Edge> &edges() const { return Edges; }
  /// Outgoing edge indices of \p Local.
  const std::vector<unsigned> &succs(unsigned Local) const {
    return Succs[Local];
  }
  /// Incoming edge indices of \p Local.
  const std::vector<unsigned> &preds(unsigned Local) const {
    return Preds[Local];
  }
  const std::vector<LiveIn> &liveIns() const { return LiveInList; }

private:
  void addEdge(unsigned From, unsigned To, EdgeKind Kind);

  std::vector<const Operation *> Ops;
  std::vector<Edge> Edges;
  std::vector<std::vector<unsigned>> Succs;
  std::vector<std::vector<unsigned>> Preds;
  std::vector<LiveIn> LiveInList;
};

/// The analyses of one function that outlive their construction: its CFG,
/// its loop nesting, one DFG per block (with hoistable live-ins marked),
/// and the def-use pairs the program-level graph is built from. The
/// def-use chains and operation index these are built from are dropped
/// once they are.
class FunctionAnalyses {
public:
  /// One register flow: an operation's definition reaching a use.
  struct Flow {
    unsigned DefOpId;
    unsigned UseOpId;
  };

  explicit FunctionAnalyses(const Function &F);

  unsigned numBlocks() const { return static_cast<unsigned>(DFGs.size()); }
  const CFG &cfg() const { return Cfg; }
  const LoopInfo &loops() const { return Loops; }
  const BlockDFG &dfg(unsigned Block) const { return DFGs[Block]; }

  /// Every (definition, use) pair of the def-use chains except parameter
  /// definitions, in block, operation, source-operand and
  /// reaching-definition order, duplicates kept.
  const std::vector<Flow> &flows() const { return Flows; }
  /// Operation ids of the uses parameter \p Param reaches, one per use
  /// site.
  const std::vector<unsigned> &paramUses(unsigned Param) const {
    return ParamUses[Param];
  }

private:
  CFG Cfg;
  LoopInfo Loops;
  std::vector<BlockDFG> DFGs;
  std::vector<Flow> Flows;
  std::vector<std::vector<unsigned>> ParamUses;
};

/// FunctionAnalyses for every function of a program. Immutable once built,
/// so concurrent readers need no synchronization. It points into the
/// program (operations, access sets), which must outlive it and must not
/// change while it is in use; build it after points-to annotation, since
/// memory ordering edges read the access sets.
class ProgramAnalyses {
public:
  /// Implicit on purpose: a call that passes a Program where a bundle is
  /// expected builds one for the duration of that call.
  ProgramAnalyses(const Program &P);

  const Program &program() const { return *P; }
  const FunctionAnalyses &function(unsigned F) const { return Funcs[F]; }

private:
  const Program *P;
  std::vector<FunctionAnalyses> Funcs;
};

} // namespace gdp

#endif // GDP_SCHED_BLOCKDFG_H
