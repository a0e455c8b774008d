//===- analysis/PointsTo.cpp - Inclusion-based points-to --------------------===//

#include "analysis/PointsTo.h"

#include "ir/Program.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <set>

using namespace gdp;

namespace {

/// Constraint-graph solver state.
struct Solver {
  unsigned NumNodes;
  std::vector<std::set<int>> Pts;          // node -> object ids
  std::vector<std::set<unsigned>> Succs;   // copy edges (dedup via set)
  std::vector<std::vector<unsigned>> LoadsAt;  // addr node -> dst nodes
  std::vector<std::vector<unsigned>> StoresAt; // addr node -> value nodes
  std::deque<unsigned> Worklist;
  std::vector<bool> InWorklist;
  unsigned NumRegNodes;

  explicit Solver(unsigned NumNodes, unsigned NumRegNodes)
      : NumNodes(NumNodes), Pts(NumNodes), Succs(NumNodes),
        LoadsAt(NumNodes), StoresAt(NumNodes), InWorklist(NumNodes, false),
        NumRegNodes(NumRegNodes) {}

  unsigned objNode(int ObjectId) const {
    return NumRegNodes + static_cast<unsigned>(ObjectId);
  }

  void push(unsigned N) {
    if (!InWorklist[N]) {
      InWorklist[N] = true;
      Worklist.push_back(N);
    }
  }

  void addBase(unsigned Node, int ObjectId) {
    if (Pts[Node].insert(ObjectId).second)
      push(Node);
  }

  void addEdge(unsigned From, unsigned To) {
    if (From == To)
      return;
    if (!Succs[From].insert(To).second)
      return;
    // Newly added edge: propagate current set immediately.
    bool Changed = false;
    for (int Obj : Pts[From])
      Changed |= Pts[To].insert(Obj).second;
    if (Changed)
      push(To);
  }

  void solve() {
    while (!Worklist.empty()) {
      unsigned N = Worklist.front();
      Worklist.pop_front();
      InWorklist[N] = false;

      // Complex constraints: *N as a load address or store address.
      for (int Obj : Pts[N]) {
        unsigned Contents = objNode(Obj);
        for (unsigned Dst : LoadsAt[N])
          addEdge(Contents, Dst);
        for (unsigned Val : StoresAt[N])
          addEdge(Val, Contents);
      }

      // Copy edges.
      for (unsigned To : Succs[N]) {
        bool Changed = false;
        for (int Obj : Pts[N])
          Changed |= Pts[To].insert(Obj).second;
        if (Changed)
          push(To);
      }
    }
  }
};

/// True if pointers may flow through \p Op from its sources to its
/// destination (register-level copy semantics for the analysis).
bool isPointerTransparent(Opcode Op) {
  switch (Op) {
  case Opcode::Mov:
  case Opcode::ICMove:
  case Opcode::Select:
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Min:
  case Opcode::Max:
    return true;
  default:
    return false;
  }
}

} // namespace

PointsTo::PointsTo(const Program &P) {
  // Node layout: all registers of all functions first, then one "contents"
  // node per data object.
  RegBase.resize(P.getNumFunctions());
  NumRegNodes = 0;
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    RegBase[F] = NumRegNodes;
    NumRegNodes += P.getFunction(F).getNumVRegs();
  }
  unsigned NumNodes = NumRegNodes + P.getNumObjects();
  Solver S(NumNodes, NumRegNodes);

  // Per-function return-value registers, for call-result binding.
  std::vector<std::vector<unsigned>> RetNodes(P.getNumFunctions());

  for (const auto &F : P.functions()) {
    unsigned FId = static_cast<unsigned>(F->getId());
    auto RN = [&](int Reg) { return RegBase[FId] + static_cast<unsigned>(Reg); };
    for (const auto &BB : F->blocks()) {
      for (const auto &Op : BB->operations()) {
        switch (Op->getOpcode()) {
        case Opcode::AddrOf:
          S.addBase(RN(Op->getDest()), static_cast<int>(Op->getImm()));
          break;
        case Opcode::Malloc:
          S.addBase(RN(Op->getDest()), Op->getMallocSite());
          break;
        case Opcode::Load:
          S.LoadsAt[RN(Op->getSrc(0))].push_back(RN(Op->getDest()));
          S.push(RN(Op->getSrc(0)));
          break;
        case Opcode::Store:
          S.StoresAt[RN(Op->getSrc(1))].push_back(RN(Op->getSrc(0)));
          S.push(RN(Op->getSrc(1)));
          break;
        case Opcode::Call: {
          const Function &Callee =
              P.getFunction(static_cast<unsigned>(Op->getCallee()));
          unsigned CalleeBase = RegBase[static_cast<unsigned>(Callee.getId())];
          for (unsigned A = 0; A != Op->getNumSrcs(); ++A)
            S.addEdge(RN(Op->getSrc(A)), CalleeBase + A);
          // Return binding is completed after the scan (RetNodes).
          break;
        }
        case Opcode::Ret:
          if (Op->getNumSrcs() > 0)
            RetNodes[FId].push_back(RN(Op->getSrc(0)));
          break;
        default:
          if (Op->hasDest() && isPointerTransparent(Op->getOpcode())) {
            unsigned First = Op->getOpcode() == Opcode::Select ? 1u : 0u;
            for (unsigned I = First, E = Op->getNumSrcs(); I != E; ++I)
              S.addEdge(RN(Op->getSrc(I)), RN(Op->getDest()));
          }
          break;
        }
      }
    }
  }

  // Bind call results to callee return values.
  for (const auto &F : P.functions()) {
    unsigned FId = static_cast<unsigned>(F->getId());
    for (const auto &BB : F->blocks())
      for (const auto &Op : BB->operations()) {
        if (Op->getOpcode() != Opcode::Call || !Op->hasDest())
          continue;
        unsigned Dst = RegBase[FId] + static_cast<unsigned>(Op->getDest());
        for (unsigned RetNode :
             RetNodes[static_cast<unsigned>(Op->getCallee())])
          S.addEdge(RetNode, Dst);
      }
  }

  S.solve();

  Solution.resize(NumNodes);
  for (unsigned N = 0; N != NumNodes; ++N)
    Solution[N].assign(S.Pts[N].begin(), S.Pts[N].end());
}

const std::vector<int> &PointsTo::pointsTo(unsigned FunctionId,
                                           unsigned Reg) const {
  unsigned Node = regNode(FunctionId, Reg);
  assert(Node < Solution.size() && "register node out of range");
  return Solution[Node];
}

const std::vector<int> &PointsTo::contents(unsigned ObjectId) const {
  unsigned Node = objNode(ObjectId);
  assert(Node < Solution.size() && "object node out of range");
  return Solution[Node];
}

unsigned gdp::annotateMemoryAccesses(Program &P) {
  PointsTo PT(P);
  unsigned NumEmpty = 0;
  for (const auto &F : P.functions()) {
    unsigned FId = static_cast<unsigned>(F->getId());
    for (const auto &BB : F->blocks()) {
      for (const auto &Op : BB->operations()) {
        if (!opcodeReferencesMemory(Op->getOpcode()))
          continue;
        Op->clearAccessSet();
        switch (Op->getOpcode()) {
        case Opcode::AddrOf:
          Op->addAccessedObject(static_cast<int>(Op->getImm()));
          break;
        case Opcode::Malloc:
          Op->addAccessedObject(Op->getMallocSite());
          break;
        case Opcode::Load: {
          const auto &Objs =
              PT.pointsTo(FId, static_cast<unsigned>(Op->getSrc(0)));
          for (int Obj : Objs)
            Op->addAccessedObject(Obj);
          if (Objs.empty())
            ++NumEmpty;
          break;
        }
        case Opcode::Store: {
          const auto &Objs =
              PT.pointsTo(FId, static_cast<unsigned>(Op->getSrc(1)));
          for (int Obj : Objs)
            Op->addAccessedObject(Obj);
          if (Objs.empty())
            ++NumEmpty;
          break;
        }
        default:
          break;
        }
      }
    }
  }
  return NumEmpty;
}
