//===- analysis/PointsTo.cpp - Allocation-site points-to analysis ---------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The Andersen fixpoint over the flat program. Soundness argument (the
// invariant every consumer leans on): in any execution, every concrete
// pointer value held by a variable/cell is either null or a node id
// allocated by exactly one Alloc micro-op; abstracting that node by its
// site, the final store computed here covers the value. The proof is the
// usual induction over executed micro-ops — every assignment the machine
// can perform is modeled as a join into the fixpoint store, guards are
// ignored (may-analysis), and candidate mode skips exactly the steps the
// Machine itself skips (tryEvalStatic on the static guard, the same
// helper the Machine calls).
//
//===----------------------------------------------------------------------===//

#include "analysis/PointsTo.h"

#include "ir/Program.h"
#include "ir/StaticEval.h"

using namespace psketch;
using namespace psketch::analysis;
using namespace psketch::ir;

namespace {

/// The constraint solver: one monotone store, iterated to fixpoint.
class Solver {
public:
  Solver(const flat::FlatProgram &FP, const HoleAssignment &Holes)
      : FP(FP), P(*FP.Source), Holes(Holes) {
    R.NumThreads = static_cast<unsigned>(FP.Threads.size());
    R.NumFields = static_cast<unsigned>(P.fields().size());
  }

  PointsToResult run() {
    collectSites();
    if (R.Sites.size() > PointsToResult::MaxSites)
      return std::move(R); // refused: Ran stays false
    initStore();
    bool Changed = true;
    // Each round is a full monotone sweep; the store's site masks and
    // flags only grow, so this terminates.
    while (Changed) {
      Changed = false;
      forEachLiveStep([&](unsigned Ctx, const flat::Step &S) {
        Changed |= transferStep(Ctx, S);
      });
    }
    computeEscaping();
    computeThreadPrivate();
    R.Ran = true;
    return std::move(R);
  }

private:
  const flat::FlatProgram &FP;
  const Program &P;
  const HoleAssignment &Holes;
  PointsToResult R;
  bool Dirty = false; ///< per-sweep change flag (set by join helpers)

  /// (Ctx, Pc, OpIndex) -> site index.
  std::unordered_map<uint64_t, unsigned> SiteIndex;

  static uint64_t siteKey(unsigned Ctx, unsigned Pc, unsigned Op) {
    return (static_cast<uint64_t>(Ctx) << 40) |
           (static_cast<uint64_t>(Pc) << 16) | Op;
  }

  const flat::FlatBody &bodyOf(unsigned Ctx) const {
    if (Ctx < R.NumThreads)
      return FP.Threads[Ctx];
    return Ctx == R.prologueCtx() ? FP.Prologue : FP.Epilogue;
  }

  /// A step is live when its static guard does not fold to false under
  /// the (possibly empty) hole assignment — the exact rule the Machine
  /// uses to skip dead steps.
  bool stepLive(const flat::Step &S) const {
    if (!S.StaticGuard)
      return true;
    auto V = tryEvalStatic(P, S.StaticGuard, Holes);
    return !V || *V != 0;
  }

  template <typename Fn> void forEachLiveStep(Fn F) {
    for (unsigned Ctx = 0; Ctx < R.numCtx(); ++Ctx) {
      const flat::FlatBody &B = bodyOf(Ctx);
      for (const flat::Step &S : B.Steps)
        if (stepLive(S))
          F(Ctx, S);
    }
  }

  void collectSites() {
    for (unsigned Ctx = 0; Ctx < R.numCtx(); ++Ctx) {
      const flat::FlatBody &B = bodyOf(Ctx);
      for (unsigned Pc = 0; Pc < B.Steps.size(); ++Pc) {
        const flat::Step &S = B.Steps[Pc];
        if (!stepLive(S))
          continue;
        for (unsigned Op = 0; Op < S.Ops.size(); ++Op) {
          if (S.Ops[Op].OpKind != flat::MicroOp::Kind::Alloc)
            continue;
          SiteIndex[siteKey(Ctx, Pc, Op)] =
              static_cast<unsigned>(R.Sites.size());
          R.Sites.push_back({Ctx, Pc, Op});
        }
      }
    }
  }

  void initStore() {
    R.Cells.assign(R.Sites.size(), std::vector<PtSet>(R.NumFields));
    // A fresh node's fields are all 0: every Ptr cell starts at {null}.
    for (auto &Cells : R.Cells)
      for (unsigned F = 0; F < R.NumFields; ++F)
        if (P.fields()[F].Ty == Type::Ptr)
          Cells[F].Null = true;

    R.Globals.assign(P.globals().size(), PtSet());
    for (size_t G = 0; G < P.globals().size(); ++G)
      if (P.globals()[G].Ty == Type::Ptr)
        R.Globals[G] =
            P.globals()[G].Init == 0 ? PtSet::null() : PtSet::top();

    R.Locals.resize(R.numCtx());
    R.Derefs.resize(R.numCtx());
    for (unsigned Ctx = 0; Ctx < R.numCtx(); ++Ctx) {
      BodyId Id = Ctx < R.NumThreads ? BodyId::thread(Ctx)
                  : Ctx == R.prologueCtx() ? BodyId::prologue()
                                           : BodyId::epilogue();
      const auto &Locals = P.body(Id).Locals;
      R.Locals[Ctx].assign(Locals.size(), PtSet());
      for (size_t L = 0; L < Locals.size(); ++L)
        if (Locals[L].Ty == Type::Ptr)
          R.Locals[Ctx][L] =
              Locals[L].Init == 0 ? PtSet::null() : PtSet::top();
    }
  }

  //===------------------------------------------------------------------===//
  // Transfer functions.
  //===------------------------------------------------------------------===//

  bool transferStep(unsigned Ctx, const flat::Step &S) {
    Dirty = false;
    if (S.WaitCond)
      visit(Ctx, S.WaitCond);
    if (S.DynGuard)
      visit(Ctx, S.DynGuard);
    for (unsigned Op = 0; Op < S.Ops.size(); ++Op) {
      const flat::MicroOp &M = S.Ops[Op];
      if (M.Pred)
        visit(Ctx, M.Pred);
      switch (M.OpKind) {
      case flat::MicroOp::Kind::Assert:
        visit(Ctx, M.Value);
        break;
      case flat::MicroOp::Kind::Write:
        store(Ctx, M.Target, visit(Ctx, M.Value));
        break;
      case flat::MicroOp::Kind::Alloc: {
        // Sites are collected from the same live-step walk, so the
        // lookup cannot miss.
        unsigned Site = SiteIndex.at(siteKey(
            Ctx, pcOf(Ctx, S), Op));
        store(Ctx, M.Target, PtSet::site(Site));
        break;
      }
      }
    }
    return Dirty;
  }

  /// Recovers the pc of \p S within its body (steps are stored by value;
  /// pointer arithmetic over the vector is stable during the solve).
  unsigned pcOf(unsigned Ctx, const flat::Step &S) const {
    const flat::FlatBody &B = bodyOf(Ctx);
    return static_cast<unsigned>(&S - B.Steps.data());
  }

  void joinInto(PtSet &Dst, const PtSet &V) { Dirty |= Dst.join(V); }

  void store(unsigned Ctx, const Loc &L, const PtSet &V) {
    switch (L.LocKind) {
    case Loc::Kind::Global:
      if (P.globals()[L.Id].Ty == Type::Ptr)
        joinInto(R.Globals[L.Id], V);
      return;
    case Loc::Kind::GlobalArray:
      visit(Ctx, L.Index);
      if (P.globals()[L.Id].Ty == Type::Ptr)
        joinInto(R.Globals[L.Id], V);
      return;
    case Loc::Kind::Local:
      if (!R.Locals[Ctx].empty() && L.Id < R.Locals[Ctx].size())
        joinInto(R.Locals[Ctx][L.Id], V);
      return;
    case Loc::Kind::Field: {
      PtSet Base = visit(Ctx, L.Index);
      recordDeref(Ctx, L.Index, Base);
      if (P.fields()[L.Id].Ty != Type::Ptr)
        return;
      if (Base.Top) {
        // Unknown target node: the store may land in any site's cell.
        for (auto &Cells : R.Cells)
          joinInto(Cells[L.Id], V);
        return;
      }
      for (unsigned S = 0; S < R.Sites.size(); ++S)
        if (Base.Sites & (1ull << S))
          joinInto(R.Cells[S][L.Id], V);
      return;
    }
    }
  }

  void recordDeref(unsigned Ctx, ExprRef Base, const PtSet &V) {
    auto It = R.Derefs[Ctx].find(Base);
    if (It == R.Derefs[Ctx].end()) {
      R.Derefs[Ctx].emplace(Base, V);
      Dirty = true;
      return;
    }
    Dirty |= It->second.join(V);
  }

  /// Evaluates \p E's points-to set (meaningful for Ptr-typed
  /// expressions; Top otherwise) and records deref resolutions for every
  /// FieldRead base in the tree.
  PtSet visit(unsigned Ctx, ExprRef E) {
    switch (E->Kind) {
    case ExprKind::ConstInt:
      return E->IntValue == 0 ? PtSet::null() : PtSet::top();
    case ExprKind::GlobalRead:
      return P.globals()[E->Id].Ty == Type::Ptr ? R.Globals[E->Id]
                                                : PtSet::top();
    case ExprKind::GlobalArrayRead:
      visit(Ctx, E->Ops[0]);
      return P.globals()[E->Id].Ty == Type::Ptr ? R.Globals[E->Id]
                                                : PtSet::top();
    case ExprKind::LocalRead:
      return E->Id < R.Locals[Ctx].size() ? R.Locals[Ctx][E->Id]
                                          : PtSet::top();
    case ExprKind::FieldRead: {
      PtSet Base = visit(Ctx, E->Ops[0]);
      recordDeref(Ctx, E->Ops[0], Base);
      if (P.fields()[E->Id].Ty != Type::Ptr)
        return PtSet::top();
      if (Base.Top) {
        // Any node: join every site's cell, plus Top for nodes that
        // entered the pool outside the tracked sites.
        return PtSet::top();
      }
      PtSet V; // null base contributes nothing: the deref faults
      for (unsigned S = 0; S < R.Sites.size(); ++S)
        if (Base.Sites & (1ull << S))
          V.join(R.Cells[S][E->Id]);
      return V;
    }
    case ExprKind::HoleRead:
      if (E->Id < Holes.size())
        return Holes[E->Id] == 0 ? PtSet::null() : PtSet::top();
      return PtSet::top();
    case ExprKind::Choice: {
      // Candidate mode resolves the selector exactly like the Machine's
      // footprint collection; an unassigned selector joins every
      // alternative.
      if (E->Id < Holes.size()) {
        uint64_t Pick = Holes[E->Id];
        if (Pick < E->Ops.size())
          return visit(Ctx, E->Ops[Pick]);
      }
      PtSet V;
      for (ExprRef Alt : E->Ops)
        V.join(visit(Ctx, Alt));
      return V;
    }
    case ExprKind::Ite: {
      visit(Ctx, E->Ops[0]);
      PtSet V = visit(Ctx, E->Ops[1]);
      V.join(visit(Ctx, E->Ops[2]));
      return V;
    }
    case ExprKind::Add:
    case ExprKind::Sub:
    case ExprKind::Eq:
    case ExprKind::Ne:
    case ExprKind::Lt:
    case ExprKind::Le:
    case ExprKind::And:
    case ExprKind::Or:
    case ExprKind::Not:
      for (ExprRef Op : E->Ops)
        visit(Ctx, Op);
      return PtSet::top();
    }
    return PtSet::top();
  }

  //===------------------------------------------------------------------===//
  // Derived facts.
  //===------------------------------------------------------------------===//

  /// Transitive closure of \p Roots over the Ptr heap-cell edges.
  uint64_t reachClosure(uint64_t Roots) const {
    uint64_t Reach = Roots;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned S = 0; S < R.Sites.size(); ++S) {
        if (!(Reach & (1ull << S)))
          continue;
        for (unsigned F = 0; F < R.NumFields; ++F) {
          uint64_t Next = R.Cells[S][F].Sites & ~Reach;
          if (Next) {
            Reach |= Next;
            Changed = true;
          }
        }
      }
    }
    return Reach;
  }

  void computeEscaping() {
    uint64_t Roots = 0;
    for (const PtSet &G : R.Globals)
      Roots |= G.Sites;
    R.Escaping = reachClosure(Roots);
  }

  void computeThreadPrivate() {
    // Reach[d]: every site context d can reach through its own locals.
    std::vector<uint64_t> Reach(R.numCtx());
    for (unsigned Ctx = 0; Ctx < R.numCtx(); ++Ctx) {
      uint64_t Roots = 0;
      for (const PtSet &L : R.Locals[Ctx])
        Roots |= L.Sites;
      Reach[Ctx] = reachClosure(Roots);
    }
    for (unsigned S = 0; S < R.Sites.size(); ++S) {
      unsigned Owner = R.Sites[S].Ctx;
      if (Owner >= R.NumThreads) // prologue/epilogue sites never qualify
        continue;
      if (R.Escaping & (1ull << S))
        continue;
      bool Private = true;
      for (unsigned Ctx = 0; Ctx < R.numCtx() && Private; ++Ctx)
        if (Ctx != Owner && (Reach[Ctx] & (1ull << S)))
          Private = false;
      if (Private)
        R.ThreadPrivate |= 1ull << S;
    }
  }
};

} // namespace

uint64_t PointsToResult::mustNotAliasPairs() const {
  std::vector<const PtSet *> Entries;
  for (const auto &Map : Derefs)
    for (const auto &KV : Map)
      Entries.push_back(&KV.second);
  uint64_t Pairs = 0;
  for (size_t I = 0; I < Entries.size(); ++I)
    for (size_t J = I + 1; J < Entries.size(); ++J)
      if (Entries[I]->disjointSites(*Entries[J]) &&
          (Entries[I]->Sites | Entries[J]->Sites) != 0)
        ++Pairs;
  return Pairs;
}

PointsToResult psketch::analysis::runPointsTo(const flat::FlatProgram &FP,
                                              const HoleAssignment *Holes) {
  static const HoleAssignment Empty;
  Solver S(FP, Holes ? *Holes : Empty);
  return S.run();
}

exec::HeapPartition
psketch::analysis::toHeapPartition(const PointsToResult &R) {
  exec::HeapPartition H;
  if (!R.Ran || R.Sites.empty() ||
      R.Sites.size() > exec::HeapPartition::MaxSites)
    return H;
  H.NumSites = static_cast<unsigned>(R.Sites.size());
  H.Resolved.resize(R.numCtx());
  for (unsigned Ctx = 0; Ctx < R.numCtx() && Ctx < R.Derefs.size(); ++Ctx)
    for (const auto &KV : R.Derefs[Ctx])
      if (KV.second.resolved())
        // A resolved base touches only its sites' cells (a null value
        // faults before reaching the heap), so the site mask alone is
        // the footprint.
        H.Resolved[Ctx][KV.first] = KV.second.Sites;
  return H;
}

namespace {

uint64_t applyPerm(const std::vector<unsigned> &Pi, uint64_t Mask) {
  uint64_t Out = 0;
  for (unsigned S = 0; S < Pi.size(); ++S)
    if (Mask & (1ull << S))
      Out |= 1ull << Pi[S];
  return Out;
}

bool setsMatch(const std::vector<unsigned> &Pi, const PtSet &Src,
               const PtSet &Dst) {
  return Src.Null == Dst.Null && Src.Top == Dst.Top &&
         applyPerm(Pi, Src.Sites) == Dst.Sites;
}

} // namespace

bool psketch::analysis::siteGraphsIsomorphic(const PointsToResult &R,
                                             unsigned CtxA, unsigned CtxB) {
  if (CtxA == CtxB)
    return true;
  std::vector<unsigned> A, B;
  for (unsigned S = 0; S < R.Sites.size(); ++S) {
    if (R.Sites[S].Ctx == CtxA)
      A.push_back(S);
    else if (R.Sites[S].Ctx == CtxB)
      B.push_back(S);
  }
  if (A.size() != B.size())
    return false;
  // Index-order correspondence: forked copies of one thread body flatten
  // to identical step lists, so the k-th site of each context sits at
  // the same (pc, op).
  std::vector<unsigned> Pi(R.Sites.size());
  for (unsigned S = 0; S < R.Sites.size(); ++S)
    Pi[S] = S;
  for (size_t K = 0; K < A.size(); ++K) {
    if (R.Sites[A[K]].Pc != R.Sites[B[K]].Pc ||
        R.Sites[A[K]].OpIndex != R.Sites[B[K]].OpIndex)
      return false;
    Pi[A[K]] = B[K];
    Pi[B[K]] = A[K];
  }
  // The whole solution must map onto itself under the swap: cells,
  // globals, every context's locals (A's onto B's and back, the rest
  // invariant), and the derived masks.
  for (unsigned S = 0; S < R.Sites.size(); ++S)
    for (unsigned F = 0; F < R.NumFields; ++F)
      if (!setsMatch(Pi, R.Cells[S][F], R.Cells[Pi[S]][F]))
        return false;
  for (const PtSet &G : R.Globals)
    if (applyPerm(Pi, G.Sites) != G.Sites)
      return false;
  for (unsigned Ctx = 0; Ctx < R.Locals.size(); ++Ctx) {
    unsigned Other = Ctx == CtxA ? CtxB : Ctx == CtxB ? CtxA : Ctx;
    if (R.Locals[Ctx].size() != R.Locals[Other].size())
      return false;
    for (size_t L = 0; L < R.Locals[Ctx].size(); ++L)
      if (!setsMatch(Pi, R.Locals[Ctx][L], R.Locals[Other][L]))
        return false;
  }
  return applyPerm(Pi, R.Escaping) == R.Escaping &&
         applyPerm(Pi, R.ThreadPrivate) == R.ThreadPrivate;
}
