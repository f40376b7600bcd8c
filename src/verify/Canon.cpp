//===- verify/Canon.cpp ----------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "verify/Canon.h"

#include <algorithm>
#include <chrono>
#include <cstring>

using namespace psketch;
using namespace psketch::verify;

Canonicalizer::Canonicalizer(const exec::Machine &M) {
  auto Start = std::chrono::steady_clock::now();
  const flat::FlatProgram &FP = M.program();
  SchedWords = M.schedWords();
  Plan = analysis::inferSymmetry(*FP.Source, FP, M.holes());

  const exec::StateLayout &L = M.layout();
  const ir::Program &P = *FP.Source;
  Perms.reserve(Plan.Perms.size());
  for (const analysis::ThreadPerm &TP : Plan.Perms) {
    Compiled C;
    C.CtxMap = TP.CtxMap;
    C.InvCtxMap = TP.InvCtxMap;
    // Identity baseline: globals, heap and the allocation counter map to
    // themselves; the loops below rewire only what the automorphism moves.
    C.Src.resize(SchedWords);
    for (uint32_t W = 0; W < SchedWords; ++W)
      C.Src[W] = W;
    C.Val.assign(SchedWords, -1);

    for (unsigned G = 0; G < P.globals().size(); ++G) {
      unsigned Off = M.globalOffset(G);
      unsigned Size = std::max(1u, P.globals()[G].ArraySize);
      if (!TP.SlotMap[G].empty())
        for (unsigned I = 0; I < Size; ++I)
          C.Src[Off + TP.SlotMap[G][I]] = Off + I;
      if (!TP.ValueMap[G].empty()) {
        C.ValTables.push_back(TP.ValueMap[G]);
        auto Idx = static_cast<int32_t>(C.ValTables.size() - 1);
        for (unsigned I = 0; I < Size; ++I)
          C.Val[Off + (TP.SlotMap[G].empty() ? I : TP.SlotMap[G][I])] = Idx;
      }
    }
    // Thread contexts: the image thread's pc/local words take the source
    // thread's, with locals routed through the per-thread slot bijection.
    for (unsigned T = 0; T < TP.CtxMap.size(); ++T) {
      unsigned U = TP.CtxMap[T];
      C.Src[L.CtxOff[U]] = L.CtxOff[T];
      for (unsigned Slot = 0; Slot < L.LocalsCount[T]; ++Slot)
        C.Src[L.CtxOff[U] + 1 + TP.LocalMap[T][Slot]] =
            L.CtxOff[T] + 1 + Slot;
    }
    Perms.push_back(std::move(C));
  }
  BuildSecs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            Start)
                  .count();
}

void Canonicalizer::apply(unsigned PermIdx, const int64_t *In,
                          int64_t *Out) const {
  if (PermIdx == IdentityPerm) {
    std::memcpy(Out, In, sizeof(int64_t) * SchedWords);
    return;
  }
  const Compiled &C = Perms[PermIdx];
  for (uint32_t W = 0; W < SchedWords; ++W) {
    int64_t V = In[C.Src[W]];
    if (C.Val[W] >= 0) {
      const auto &Map = C.ValTables[static_cast<size_t>(C.Val[W])];
      auto It = std::lower_bound(
          Map.begin(), Map.end(), V,
          [](const std::pair<int64_t, int64_t> &E, int64_t X) {
            return E.first < X;
          });
      if (It != Map.end() && It->first == V)
        V = It->second;
    }
    Out[W] = V;
  }
}

const int64_t *Canonicalizer::canonicalize(const int64_t *Words,
                                           unsigned &PermIdx) const {
  PermIdx = IdentityPerm;
  if (Perms.empty())
    return Words;
  // Two scratch buffers per thread: Best holds the smallest image found
  // so far, Tmp the candidate under evaluation. The returned pointer is
  // consumed (hashed / key-materialized) inside the same table call, so
  // reuse across probes is safe.
  static thread_local std::vector<int64_t> Best, Tmp;
  Best.resize(SchedWords);
  Tmp.resize(SchedWords);
  const int64_t *Min = Words;
  for (unsigned I = 0; I < Perms.size(); ++I) {
    apply(I, Words, Tmp.data());
    if (std::lexicographical_compare(Tmp.begin(), Tmp.end(), Min,
                                     Min + SchedWords)) {
      Best.swap(Tmp);
      Min = Best.data();
      PermIdx = I;
    }
  }
  return Min;
}

uint64_t Canonicalizer::maskToCanonical(unsigned PermIdx,
                                        uint64_t Raw) const {
  if (PermIdx == IdentityPerm || Raw == 0)
    return Raw;
  const Compiled &C = Perms[PermIdx];
  uint64_t Out = 0;
  for (unsigned T = 0; T < C.CtxMap.size(); ++T)
    if (Raw & (uint64_t(1) << T))
      Out |= uint64_t(1) << C.CtxMap[T];
  return Out;
}

uint64_t Canonicalizer::maskFromCanonical(unsigned PermIdx,
                                          uint64_t Canon) const {
  if (PermIdx == IdentityPerm || Canon == 0)
    return Canon;
  const Compiled &C = Perms[PermIdx];
  uint64_t Out = 0;
  for (unsigned T = 0; T < C.InvCtxMap.size(); ++T)
    if (Canon & (uint64_t(1) << T))
      Out |= uint64_t(1) << C.InvCtxMap[T];
  return Out;
}
