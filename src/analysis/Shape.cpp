//===- analysis/Shape.cpp - Heap shape classification & lint --------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "analysis/Shape.h"

#include "analysis/Analyzer.h"
#include "analysis/Lockset.h"
#include "analysis/Util.h"
#include "ir/StaticEval.h"
#include "support/StrUtil.h"

#include <cstdlib>
#include <cstring>
#include <map>
#include <set>

using namespace psketch;
using namespace psketch::analysis;
using namespace psketch::ir;

namespace {

/// Whole-space step liveness: live unless the static guard folds to
/// false with no hole bound — the same rule the points-to solver used,
/// so findings and solution describe the same step set.
bool wholeSpaceLive(const Program &P, const flat::Step &S) {
  if (!S.StaticGuard)
    return true;
  static const HoleAssignment Empty;
  auto V = tryEvalStatic(P, S.StaticGuard, Empty);
  return !V || *V != 0;
}

/// Calls \p Fn(Base, Field, IsWrite) for every field access in \p E's
/// tree (reads only; writes come from Loc targets).
template <typename Fn> void forEachFieldRead(ExprRef E, Fn F) {
  if (!E)
    return;
  if (E->Kind == ExprKind::FieldRead)
    F(E->Ops[0], E->Id, false);
  for (ExprRef Op : E->Ops)
    forEachFieldRead(Op, F);
}

/// Calls \p Fn(Base, Field, IsWrite) for every field access the step may
/// perform: FieldRead nodes in any expression position, plus Field-kind
/// write targets.
template <typename Fn>
void forEachFieldAccess(const flat::Step &S, Fn F) {
  forEachFieldRead(S.WaitCond, F);
  forEachFieldRead(S.DynGuard, F);
  for (const flat::MicroOp &Op : S.Ops) {
    forEachFieldRead(Op.Pred, F);
    forEachFieldRead(Op.Value, F);
    if (Op.OpKind == flat::MicroOp::Kind::Assert)
      continue;
    if (Op.Target.LocKind == Loc::Kind::Field) {
      forEachFieldRead(Op.Target.Index, F);
      F(Op.Target.Index, Op.Target.Id, true);
    } else if (Op.Target.Index) {
      forEachFieldRead(Op.Target.Index, F);
    }
  }
}

//===----------------------------------------------------------------------===//
// Per-site graph classification.
//===----------------------------------------------------------------------===//

struct SiteGraph {
  std::vector<uint64_t> Succ; ///< per-site successor mask (all Ptr fields)
  std::vector<bool> TopCell;  ///< some Ptr cell lost track (Top)

  explicit SiteGraph(const PointsToResult &Pts) {
    Succ.assign(Pts.Sites.size(), 0);
    TopCell.assign(Pts.Sites.size(), false);
    for (unsigned S = 0; S < Pts.Sites.size(); ++S)
      for (unsigned F = 0; F < Pts.NumFields; ++F) {
        Succ[S] |= Pts.Cells[S][F].Sites;
        TopCell[S] = TopCell[S] || Pts.Cells[S][F].Top;
      }
  }

  uint64_t closure(uint64_t Roots) const {
    uint64_t Reach = Roots;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned S = 0; S < Succ.size(); ++S)
        if (Reach & (1ull << S)) {
          uint64_t Next = Succ[S] & ~Reach;
          if (Next) {
            Reach |= Next;
            Changed = true;
          }
        }
    }
    return Reach;
  }
};

ShapeKind classify(const PointsToResult &Pts, const SiteGraph &G,
                   unsigned Site) {
  if (Pts.Escaping & (1ull << Site))
    return ShapeKind::Escaping;
  uint64_t Reach = G.closure(1ull << Site);
  bool Cyclic = false, AnyTop = false;
  for (unsigned T = 0; T < G.Succ.size(); ++T) {
    if (!(Reach & (1ull << T)))
      continue;
    AnyTop = AnyTop || G.TopCell[T];
    // A cycle through T: T reaches itself over at least one edge.
    if (G.closure(G.Succ[T]) & (1ull << T))
      Cyclic = true;
  }
  if (Cyclic || AnyTop)
    return ShapeKind::PossiblyCyclic;
  bool List = true, TreeLike = true;
  for (unsigned T = 0; T < G.Succ.size(); ++T) {
    if (!(Reach & (1ull << T)))
      continue;
    uint64_t S = G.Succ[T] & Reach;
    if (S & (S - 1)) // out-degree > 1
      List = false;
    unsigned InDeg = 0;
    for (unsigned U = 0; U < G.Succ.size(); ++U)
      if ((Reach & (1ull << U)) && (G.Succ[U] & (1ull << T)))
        ++InDeg;
    if (InDeg > 1)
      TreeLike = false;
  }
  if (List)
    return ShapeKind::AcyclicList;
  if (TreeLike)
    return ShapeKind::Tree;
  return ShapeKind::PossiblyCyclic;
}

} // namespace

const char *analysis::shapeKindName(ShapeKind K) {
  switch (K) {
  case ShapeKind::AcyclicList:
    return "acyclic-list";
  case ShapeKind::Tree:
    return "tree";
  case ShapeKind::PossiblyCyclic:
    return "possibly-cyclic";
  case ShapeKind::Escaping:
    return "escaping";
  }
  return "?";
}

bool analysis::defaultShape() {
  const char *V = std::getenv("PSKETCH_SHAPE");
  if (!V)
    return true;
  return std::strcmp(V, "off") != 0 && std::strcmp(V, "0") != 0 &&
         std::strcmp(V, "false") != 0;
}

ShapeResult analysis::runShape(const Program &P,
                               const flat::FlatProgram &FP) {
  ShapeResult Out;
  Out.Pts = runPointsTo(FP, nullptr);
  if (!Out.Pts.Ran)
    return Out;
  const PointsToResult &Pts = Out.Pts;

  // Classification.
  SiteGraph G(Pts);
  Out.SiteShapes.resize(Pts.Sites.size());
  for (unsigned S = 0; S < Pts.Sites.size(); ++S)
    Out.SiteShapes[S] = classify(Pts, G, S);

  // Leaks: a site the quiescent state cannot see. The pool never
  // reclaims, so an unpublished node is lost capacity on every run that
  // allocates it.
  for (unsigned S = 0; S < Pts.Sites.size(); ++S)
    if (!(Pts.Escaping & (1ull << S)))
      Out.LeakedSites |= 1ull << S;

  // Definite-null derefs + heap-field access records, one step walk.
  analysis::LocksetResult LS = runLockset(P, FP, nullptr);
  struct Access {
    unsigned Ctx, Pc;
    uint32_t Mask;
    bool Write;
  };
  std::map<std::pair<unsigned, unsigned>, std::vector<Access>> Accesses;
  unsigned NumThreads = static_cast<unsigned>(FP.Threads.size());
  std::set<std::pair<unsigned, unsigned>> NullSeen;
  for (unsigned Ctx = 0; Ctx < numContexts(FP); ++Ctx) {
    const flat::FlatBody &B = bodyOf(FP, Ctx);
    bool MasksOk = !LS.Locks.empty() && Ctx < LS.Locks.MustEntry.size() &&
                   LS.Locks.MustEntry[Ctx].size() == B.Steps.size() + 1;
    for (unsigned Pc = 0; Pc < B.Steps.size(); ++Pc) {
      const flat::Step &S = B.Steps[Pc];
      if (!wholeSpaceLive(P, S))
        continue;
      uint32_t Mask = MasksOk ? LS.Locks.MustEntry[Ctx][Pc] : 0;
      forEachFieldAccess(S, [&](ExprRef Base, unsigned Field, bool Write) {
        PtSet BaseSet = Pts.derefSet(Ctx, Base);
        if (BaseSet.definitelyNull() &&
            NullSeen.insert({Ctx, Pc}).second)
          Out.NullDerefs.push_back({Ctx, stepWhere(FP, Ctx, Pc)});
        if (Ctx >= NumThreads)
          return; // prologue/epilogue run quiescent: no races
        uint64_t Sites = BaseSet.resolved()
                             ? BaseSet.Sites
                             : (Pts.Sites.empty()
                                    ? 0
                                    : (~0ull >> (64 - Pts.Sites.size())));
        for (unsigned Site = 0; Site < Pts.Sites.size(); ++Site)
          if (Sites & (1ull << Site))
            Accesses[{Site, Field}].push_back({Ctx, Pc, Mask, Write});
      });
    }
  }

  // Eraser over (site, field): >= 2 thread contexts, >= 1 write, >= 1
  // locked access site, empty must-lockset intersection. Restricted to
  // escaping sites — a confined site cannot be reached by two contexts,
  // so any such record is Top-smear noise.
  for (auto &[Key, Sites] : Accesses) {
    auto [Site, Field] = Key;
    if (!(Pts.Escaping & (1ull << Site)))
      continue;
    std::set<unsigned> Ctxs;
    uint32_t Common = ~0u, Any = 0;
    bool AnyWrite = false;
    for (const Access &A : Sites) {
      Ctxs.insert(A.Ctx);
      Common &= A.Mask;
      Any |= A.Mask;
      AnyWrite |= A.Write;
    }
    if (Ctxs.size() < 2 || !AnyWrite || Any == 0 || Common != 0)
      continue;
    const Access *Bad = &Sites.front();
    for (const Access &A : Sites)
      if (A.Mask == 0) {
        Bad = &A;
        break;
      }
    Out.HeapRaces.push_back({Site, Field, Pts.Sites[Site].Label,
                             P.fields()[Field].Name,
                             stepWhere(FP, Bad->Ctx, Bad->Pc)});
  }

  Out.Ran = true;
  return Out;
}

void analysis::runShapeLint(const Program &P, const flat::FlatProgram &FP,
                            DiagnosticSink &Sink) {
  ShapeResult R = runShape(P, FP);
  if (!R.Ran)
    return;
  constexpr const char *Pass = "shape";
  for (const NullDerefFinding &F : R.NullDerefs)
    Sink.warning(Pass,
                 "field access through a provably-null pointer: this "
                 "dereference faults on every execution that reaches it",
                 F.Where);
  for (unsigned S = 0; S < R.Pts.Sites.size(); ++S)
    if (R.LeakedSites & (1ull << S))
      Sink.warning(Pass,
                   format("allocation never published: the node is "
                          "unreachable from every global at quiescence "
                          "(leaked pool capacity, %s)",
                          shapeKindName(R.SiteShapes[S])),
                   stepWhere(FP, R.Pts.Sites[S].Ctx, R.Pts.Sites[S].Pc));
  for (const HeapRaceFinding &F : R.HeapRaces)
    Sink.warning(Pass,
                 format("possible race on heap field '%s' of the shared "
                        "node allocated at '%s': no common lock protects "
                        "all access sites",
                        F.FieldName.c_str(), F.SiteLabel.c_str()),
                 F.Where);
}
