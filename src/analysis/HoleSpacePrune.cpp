//===- analysis/HoleSpacePrune.cpp -----------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "analysis/HoleSpacePrune.h"

#include "analysis/Util.h"
#include "ir/ReorderExpand.h"
#include "ir/StaticEval.h"
#include "support/StrUtil.h"

#include <cmath>
#include <map>
#include <unordered_map>

using namespace psketch;
using namespace psketch::analysis;
using namespace psketch::ir;
using flat::FlatProgram;
using flat::MicroOp;
using flat::Step;

namespace {

constexpr const char *PassName = "prune";

// Enumeration caps. Exceeding one skips the (optional) finding; it never
// affects soundness.
constexpr uint64_t MaxGuardEnum = 4096;       ///< assignments per static guard
constexpr unsigned MaxHoleChoices = 64;       ///< equivalence scan per-hole cap
constexpr uint64_t MaxReorderEnum = 4096;     ///< assignments per reorder block
constexpr size_t MaxReorderExclusions = 256;  ///< exclusion constraints per block

/// A hole id no expression can mention; turns the substitution-equality
/// helpers into plain structural equality.
constexpr unsigned NoHole = ~0u;

bool exprEq(ExprRef A, ExprRef B) {
  return exprEqualUnder(A, B, NoHole, 0, 0);
}

bool locEq(const Loc &A, const Loc &B) {
  return locEqualUnder(A, B, NoHole, 0, 0);
}

/// Structural statement equality (labels ignored: they carry no
/// semantics). Statements embedding their own selector holes compare
/// unequal unless they share the hole, which is exactly right: only
/// genuinely interchangeable statements enable reorder symmetry breaking.
bool stmtEqual(const Stmt *A, const Stmt *B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  if (A->Kind != B->Kind || A->HoleId != B->HoleId ||
      A->ReorderHoles != B->ReorderHoles || A->Encoding != B->Encoding ||
      A->UnrollBound != B->UnrollBound ||
      A->TargetChoices.size() != B->TargetChoices.size() ||
      A->Children.size() != B->Children.size())
    return false;
  if (!exprEq(A->Cond, B->Cond) || !exprEq(A->Value, B->Value) ||
      !locEq(A->Target, B->Target))
    return false;
  for (size_t I = 0; I < A->TargetChoices.size(); ++I)
    if (!locEq(A->TargetChoices[I], B->TargetChoices[I]))
      return false;
  for (size_t I = 0; I < A->Children.size(); ++I)
    if (!stmtEqual(A->Children[I], B->Children[I]))
      return false;
  return true;
}

/// Collects every hole the flat program mentions anywhere.
void collectProgramHoles(const FlatProgram &FP, std::set<unsigned> &Out) {
  for (unsigned Ctx = 0; Ctx < numContexts(FP); ++Ctx)
    for (const Step &S : bodyOf(FP, Ctx).Steps) {
      collectHoles(S.StaticGuard, Out);
      collectHoles(S.DynGuard, Out);
      collectHoles(S.WaitCond, Out);
      for (const MicroOp &Op : S.Ops) {
        collectHoles(Op.Pred, Out);
        collectHoles(Op.Value, Out);
        collectHoles(Op.Target.Index, Out);
      }
    }
  for (ExprRef C : FP.Source->staticConstraints())
    collectHoles(C, Out);
}

/// Collects hole uses from the *structured* IR, excluding reorder
/// selector holes (which only the reorder's own guards mention after
/// expansion). A reorder group whose holes show up here is shared with
/// user expressions and must not be canonicalized.
void collectStmtHoleUses(const Stmt *S, std::set<unsigned> &Out) {
  if (!S)
    return;
  collectHoles(S->Cond, Out);
  collectHoles(S->Value, Out);
  collectHoles(S->Target.Index, Out);
  for (const Loc &L : S->TargetChoices)
    collectHoles(L.Index, Out);
  if ((S->Kind == StmtKind::ChoiceAssign || S->Kind == StmtKind::Swap) &&
      S->TargetChoices.size() > 1)
    Out.insert(S->HoleId);
  for (StmtRef Child : S->Children)
    collectStmtHoleUses(Child, Out);
}

/// Collects every Reorder statement in the program.
void collectReorders(StmtRef S, std::vector<const Stmt *> &Out) {
  if (!S)
    return;
  if (S->Kind == StmtKind::Reorder)
    Out.push_back(S);
  for (StmtRef Child : S->Children)
    collectReorders(Child, Out);
}

/// Enumerates hole-only guard \p G over the holes it mentions.
/// \returns (anyTrue, anyFalse) or nullopt past the cap.
struct GuardFold {
  bool AnyTrue = false;
  bool AnyFalse = false;
};
std::optional<GuardFold> foldGuard(const Program &P, ExprRef G, uint64_t Cap) {
  if (!G || !G->isHoleOnly())
    return std::nullopt;
  std::set<unsigned> Holes;
  collectHoles(G, Holes);
  std::vector<unsigned> Ids(Holes.begin(), Holes.end());
  GuardFold F;
  bool Complete = forEachAssignment(P, Ids, Cap, [&](const HoleAssignment &A) {
    auto V = tryEvalStatic(P, G, A);
    if (!V)
      return;
    (*V != 0 ? F.AnyTrue : F.AnyFalse) = true;
  });
  if (!Complete)
    return std::nullopt;
  return F;
}

} // namespace

void psketch::analysis::runHoleSpacePrune(Program &P, const FlatProgram &FP,
                                          DiagnosticSink &Sink,
                                          AnalysisResult &Out) {
  std::set<unsigned> Mentioned;
  collectProgramHoles(FP, Mentioned);

  // Per-hole ban accounting for the candidate-space estimate.
  std::vector<unsigned> BansPerHole(P.holes().size(), 0);
  auto ban = [&](unsigned H, uint64_t V) {
    Out.Bans.push_back(HoleValueBan{H, V});
    ++BansPerHole[H];
  };

  //===------------------------------------------------------------------===//
  // Unused holes and equivalent generator alternatives.
  //===------------------------------------------------------------------===//
  for (unsigned H = 0; H < P.holes().size(); ++H) {
    const Hole &Info = P.holes()[H];
    if (Info.NumChoices < 2)
      continue;
    if (!Mentioned.count(H)) {
      for (uint64_t V = 1; V < Info.NumChoices; ++V)
        ban(H, V);
      Sink.warning(PassName,
                   format("hole '%s' is never used; pinned to 0 (%u "
                          "candidate values pruned)",
                          Info.Name.c_str(), Info.NumChoices - 1));
      continue;
    }
    if (Info.NumChoices > MaxHoleChoices)
      continue;
    for (uint64_t V = 1; V < Info.NumChoices; ++V) {
      for (uint64_t U = 0; U < V; ++U) {
        if (!programEqualUnder(FP, H, U, V))
          continue;
        ban(H, V);
        Sink.note(PassName,
                  format("alternative %llu of hole '%s' is syntactically "
                         "equivalent to alternative %llu; pruned",
                         static_cast<unsigned long long>(V),
                         Info.Name.c_str(),
                         static_cast<unsigned long long>(U)));
        break;
      }
    }
  }

  //===------------------------------------------------------------------===//
  // Static-guard constant folding: statically dead steps.
  //===------------------------------------------------------------------===//
  for (unsigned Ctx = 0; Ctx < numContexts(FP); ++Ctx) {
    const flat::FlatBody &B = bodyOf(FP, Ctx);
    for (unsigned Pc = 0; Pc < B.Steps.size(); ++Pc) {
      ExprRef G = B.Steps[Pc].StaticGuard;
      if (!G)
        continue;
      auto F = foldGuard(P, G, MaxGuardEnum);
      if (!F)
        continue;
      if (!F->AnyTrue)
        Sink.warning(PassName,
                     "step is dead: its static guard is false under every "
                     "candidate",
                     stepWhere(FP, Ctx, Pc));
      else if (!F->AnyFalse)
        Sink.note(PassName,
                  "static guard is true under every candidate (generator "
                  "alternative is unconditional)",
                  stepWhere(FP, Ctx, Pc));
    }
  }

  //===------------------------------------------------------------------===//
  // Redundant reorder positions: canonicalize assignments per realized
  // execution order.
  //===------------------------------------------------------------------===//
  std::set<unsigned> UserUses;
  collectStmtHoleUses(P.body(BodyId::prologue()).Root, UserUses);
  for (unsigned T = 0; T < P.numThreads(); ++T)
    collectStmtHoleUses(P.body(BodyId::thread(T)).Root, UserUses);
  collectStmtHoleUses(P.body(BodyId::epilogue()).Root, UserUses);

  std::vector<const Stmt *> Reorders;
  collectReorders(P.body(BodyId::prologue()).Root, Reorders);
  for (unsigned T = 0; T < P.numThreads(); ++T)
    collectReorders(P.body(BodyId::thread(T)).Root, Reorders);
  collectReorders(P.body(BodyId::epilogue()).Root, Reorders);

  // Group reorder sites sharing one selector-hole vector (reorderOf call
  // sites); holes appearing in two *different* vectors are unsafe.
  std::map<std::vector<unsigned>, std::vector<const Stmt *>> Groups;
  std::map<unsigned, unsigned> HoleGroupCount;
  for (const Stmt *R : Reorders) {
    if (R->ReorderHoles.empty())
      continue;
    auto [It, Fresh] = Groups.try_emplace(R->ReorderHoles);
    It->second.push_back(R);
    if (Fresh)
      for (unsigned H : R->ReorderHoles)
        ++HoleGroupCount[H];
  }

  for (auto &[Holes, Sites] : Groups) {
    bool Safe = true;
    for (unsigned H : Holes)
      if (UserUses.count(H) || HoleGroupCount[H] > 1)
        Safe = false;
    if (!Safe)
      continue;

    // Expand each site once; precompute the canonical index of each
    // child (identical statements are interchangeable positions).
    struct SiteInfo {
      std::vector<ReorderEntry> Entries;
      std::vector<unsigned> Canon; // child index -> representative
    };
    std::vector<SiteInfo> Infos;
    bool AnyIdenticalChildren = false;
    for (const Stmt *R : Sites) {
      SiteInfo Info;
      Info.Entries = expandReorder(P, R);
      Info.Canon.resize(R->Children.size());
      for (size_t J = 0; J < R->Children.size(); ++J) {
        Info.Canon[J] = static_cast<unsigned>(J);
        for (size_t I = 0; I < J; ++I)
          if (stmtEqual(R->Children[I], R->Children[J])) {
            Info.Canon[J] = static_cast<unsigned>(I);
            AnyIdenticalChildren = true;
            break;
          }
      }
      // Map each expanded entry back to its child index.
      Infos.push_back(std::move(Info));
    }

    bool Exponential =
        Sites.front()->Encoding == ReorderEncoding::Exponential;
    if (!Exponential && !AnyIdenticalChildren)
      continue; // quadratic with all-distinct children: no redundancy

    // Only constraints fully over this group's holes can be evaluated;
    // others cannot exist for reorder holes, but stay conservative.
    std::vector<ExprRef> GroupConstraints;
    std::set<unsigned> GroupHoles(Holes.begin(), Holes.end());
    for (ExprRef C : P.staticConstraints()) {
      std::set<unsigned> CH;
      collectHoles(C, CH);
      bool Inside = !CH.empty();
      for (unsigned H : CH)
        if (!GroupHoles.count(H))
          Inside = false;
      if (Inside)
        GroupConstraints.push_back(C);
    }

    uint64_t Valid = 0, Excluded = 0;
    std::unordered_map<std::string, bool> Seen;
    bool Capped = false;
    bool Complete = forEachAssignment(
        P, Holes, MaxReorderEnum, [&](const HoleAssignment &A) {
          for (ExprRef C : GroupConstraints) {
            auto V = tryEvalStatic(P, C, A);
            if (V && *V == 0)
              return; // invalid assignment: already outside the space
          }
          ++Valid;
          std::string Key;
          for (size_t S = 0; S < Sites.size(); ++S) {
            const SiteInfo &Info = Infos[S];
            const Stmt *R = Sites[S];
            for (const ReorderEntry &E : Info.Entries) {
              bool Live = E.Cond == nullptr;
              if (!Live) {
                auto V = tryEvalStatic(P, E.Cond, A);
                Live = V && *V != 0;
              }
              if (!Live)
                continue;
              // Which child is this entry?
              for (size_t J = 0; J < R->Children.size(); ++J)
                if (R->Children[J] == E.Child) {
                  Key += static_cast<char>('a' + Info.Canon[J]);
                  break;
                }
            }
            Key += '|';
          }
          if (Seen.emplace(Key, true).second)
            return; // canonical representative of this order
          if (Out.Exclusions.size() >= MaxReorderExclusions) {
            Capped = true;
            return;
          }
          ++Excluded;
          ExprRef Conj = nullptr;
          for (unsigned H : Holes) {
            ExprRef Eq = P.eq(P.holeValue(H),
                              P.constInt(static_cast<int64_t>(A[H])));
            Conj = Conj ? P.land(Conj, Eq) : Eq;
          }
          Out.Exclusions.push_back(P.lnot(Conj));
        });
    if (!Complete || Excluded == 0)
      continue;
    Sink.note(PassName,
              format("reorder over holes '%s..': %llu of %llu legal "
                     "assignments are redundant re-encodings of another "
                     "order; excluded%s",
                     P.holes()[Holes.front()].Name.c_str(),
                     static_cast<unsigned long long>(Excluded),
                     static_cast<unsigned long long>(Valid),
                     Capped ? " (capped)" : ""));
    // The recorded space factor for a reorder is k! (distinct orders).
    // Exponential-encoding redundancy does not change the order count,
    // so only quadratic groups shrink Table 1's |C|.
    if (!Exponential && Valid > Excluded)
      Out.SpaceLog10Delta += std::log10(static_cast<double>(Valid - Excluded)) -
                             std::log10(static_cast<double>(Valid));
  }

  // Fold the per-hole unit bans into the space estimate (counted holes
  // contribute their own NumChoices factor to |C|).
  for (unsigned H = 0; H < P.holes().size(); ++H) {
    if (!BansPerHole[H] || !P.holes()[H].Counted)
      continue;
    unsigned N = P.holes()[H].NumChoices;
    unsigned Left = N - BansPerHole[H];
    Out.SpaceLog10Delta += std::log10(static_cast<double>(Left)) -
                           std::log10(static_cast<double>(N));
  }
}
