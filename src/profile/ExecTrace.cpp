//===- profile/ExecTrace.cpp - Dynamic execution trace ----------------------===//

#include "profile/ExecTrace.h"

#include "ir/Program.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <functional>

using namespace gdp;

void ExecTrace::reset(const Program &P) {
  Blocks.clear();
  AccessObj.assign(P.getNumFunctions(), {});
  for (unsigned F = 0; F != P.getNumFunctions(); ++F)
    AccessObj[F].resize(P.getFunction(F).getNumOpIds());
}

uint64_t ExecTrace::numAccessEvents() const {
  uint64_t N = 0;
  for (const auto &Fn : AccessObj)
    for (const auto &Stream : Fn)
      N += Stream.size();
  return N;
}

uint64_t TraceSummary::numBlockEvents() const {
  uint64_t N = 0;
  for (const auto &Fn : Blocks)
    for (const Block &B : Fn)
      for (const Variant &V : B.Variants)
        N += V.Count;
  return N;
}

namespace {

constexpr uint32_t NoVariant = ~0u;

/// What the summarizer tracks of one block while it walks the trace.
struct BlockCursor {
  std::vector<uint32_t> OpIds; ///< Memory operations, in program order.
  /// Streams holding more than one object, and the positions of their
  /// operations in OpIds: the only streams read per execution.
  std::vector<const int32_t *> Varying;
  std::vector<uint32_t> VaryingPos;
  size_t MinLen = SIZE_MAX; ///< Length of the shortest stream.
  uint64_t Execs = 0;       ///< Executions so far: the streams' cursor.
  uint32_t Last = NoVariant; ///< Variant of the previous execution.
};

/// Finds a block's variant by its key (predecessor and varying objects)
/// across the whole trace: open addressing over every variant seen.
class VariantIndex {
public:
  VariantIndex() : Slots(256, 0) {}

  /// The variant of block (\p F, \p B) with hash \p Hash that \p Same
  /// accepts, or NoVariant.
  template <typename SameFn>
  uint32_t find(uint64_t Hash, uint32_t F, uint32_t B, SameFn Same) const {
    size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask; Slots[I]; I = (I + 1) & Mask) {
      const Entry &E = Entries[Slots[I] - 1];
      if (E.Hash == Hash && E.Func == F && E.Block == B && Same(E.Variant))
        return E.Variant;
    }
    return NoVariant;
  }

  void insert(uint64_t Hash, uint32_t F, uint32_t B, uint32_t V) {
    Entries.push_back({Hash, F, B, V});
    if (Entries.size() * 2 > Slots.size()) {
      Slots.assign(Slots.size() * 2, 0);
      for (uint32_t E = 0; E != Entries.size(); ++E)
        place(E);
    } else {
      place(static_cast<uint32_t>(Entries.size() - 1));
    }
  }

private:
  struct Entry {
    uint64_t Hash;
    uint32_t Func, Block, Variant;
  };

  void place(uint32_t E) {
    size_t Mask = Slots.size() - 1;
    size_t I = Entries[E].Hash & Mask;
    while (Slots[I])
      I = (I + 1) & Mask;
    Slots[I] = E + 1;
  }

  std::vector<Entry> Entries;
  std::vector<uint32_t> Slots; ///< Entry index + 1; 0 is empty.
};

uint64_t mix(uint64_t H, uint32_t V) {
  H = (H ^ V) * 0x9E3779B97F4A7C15ull;
  return H ^ (H >> 29);
}

} // namespace

TraceSummary gdp::summarizeTrace(const Program &P, const ExecTrace &T) {
  TraceSummary S;
  unsigned NumFuncs = P.getNumFunctions();
  if (T.AccessObj.size() != NumFuncs)
    return S;
  for (unsigned F = 0; F != NumFuncs; ++F)
    if (T.AccessObj[F].size() != P.getFunction(F).getNumOpIds())
      return S;

  std::vector<std::vector<BlockCursor>> Cursors(NumFuncs);
  S.Blocks.resize(NumFuncs);
  for (unsigned F = 0; F != NumFuncs; ++F) {
    const Function &Fn = P.getFunction(F);
    Cursors[F].resize(Fn.getNumBlocks());
    S.Blocks[F].resize(Fn.getNumBlocks());
    for (unsigned B = 0; B != Fn.getNumBlocks(); ++B) {
      const BasicBlock &BB = Fn.getBlock(B);
      BlockCursor &C = Cursors[F][B];
      for (unsigned I = 0; I != BB.size(); ++I) {
        if (!BB.getOp(I).isMemoryAccess())
          continue;
        uint32_t Id = static_cast<uint32_t>(BB.getOp(I).getId());
        const std::vector<int32_t> &Stream = T.AccessObj[F][Id];
        C.MinLen = std::min(C.MinLen, Stream.size());
        if (std::adjacent_find(Stream.begin(), Stream.end(),
                               std::not_equal_to<>()) != Stream.end()) {
          C.Varying.push_back(Stream.data());
          C.VaryingPos.push_back(static_cast<uint32_t>(C.OpIds.size()));
        }
        C.OpIds.push_back(Id);
      }
      S.Blocks[F][B].NumMemOps = static_cast<uint32_t>(C.OpIds.size());
    }
  }

  VariantIndex Index;
  std::vector<int32_t> LastBlock(NumFuncs, -1);
  std::vector<int32_t> Key; // This execution's objects of varying streams.
  for (const ExecTrace::BlockEvent &Ev : T.Blocks) {
    if (Ev.Func >= NumFuncs || Ev.Block >= Cursors[Ev.Func].size()) {
      S.Error = formatStr("trace event (%u, %u) out of range", Ev.Func,
                          Ev.Block);
      return S;
    }
    BlockCursor &C = Cursors[Ev.Func][Ev.Block];
    TraceSummary::Block &SB = S.Blocks[Ev.Func][Ev.Block];
    uint64_t K = C.Execs++;
    if (K >= C.MinLen)
      for (uint32_t Id : C.OpIds)
        if (K >= T.AccessObj[Ev.Func][Id].size()) {
          S.Error = formatStr("access stream of operation (%u, %u) "
                              "exhausted after %u events (trace/profile "
                              "mismatch)",
                              Ev.Func, Id, static_cast<unsigned>(K));
          return S;
        }

    // Block 0 is a fresh invocation: the previous block of this function
    // id (possibly another frame's) is not this execution's predecessor.
    int32_t Pred = Ev.Block == 0 ? -1 : LastBlock[Ev.Func];
    LastBlock[Ev.Func] = static_cast<int32_t>(Ev.Block);
    Key.resize(C.Varying.size());
    for (size_t J = 0; J != Key.size(); ++J)
      Key[J] = C.Varying[J][K];

    auto Same = [&](uint32_t V) {
      if (SB.Variants[V].Pred != Pred)
        return false;
      const int32_t *Objs = SB.objectsOf(V);
      for (size_t J = 0; J != Key.size(); ++J)
        if (Objs[C.VaryingPos[J]] != Key[J])
          return false;
      return true;
    };
    if (C.Last == NoVariant || !Same(C.Last)) {
      uint64_t Hash = mix(mix(mix(0, Ev.Func), Ev.Block),
                          static_cast<uint32_t>(Pred));
      for (int32_t Obj : Key)
        Hash = mix(Hash, static_cast<uint32_t>(Obj));
      C.Last = Index.find(Hash, Ev.Func, Ev.Block, Same);
      if (C.Last == NoVariant) {
        C.Last = static_cast<uint32_t>(SB.Variants.size());
        SB.Variants.push_back({Pred, 0});
        for (uint32_t Id : C.OpIds)
          SB.Objects.push_back(T.AccessObj[Ev.Func][Id][K]);
        Index.insert(Hash, Ev.Func, Ev.Block, C.Last);
      }
    }
    ++SB.Variants[C.Last].Count;
  }
  return S;
}
