//===- analysis/Util.cpp ---------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "analysis/Util.h"

#include "support/StrUtil.h"

using namespace psketch;
using namespace psketch::analysis;
using namespace psketch::ir;
using flat::FlatBody;
using flat::FlatProgram;
using flat::MicroOp;
using flat::Step;

//===----------------------------------------------------------------------===//
// Context navigation.
//===----------------------------------------------------------------------===//

const FlatBody &psketch::analysis::bodyOf(const FlatProgram &FP,
                                          unsigned Ctx) {
  unsigned N = static_cast<unsigned>(FP.Threads.size());
  if (Ctx < N)
    return FP.Threads[Ctx];
  return Ctx == N ? FP.Prologue : FP.Epilogue;
}

std::string psketch::analysis::contextName(const FlatProgram &FP,
                                           unsigned Ctx) {
  unsigned N = static_cast<unsigned>(FP.Threads.size());
  if (Ctx < N)
    return format("thread %u", Ctx);
  return Ctx == N ? "prologue" : "epilogue";
}

std::string psketch::analysis::stepWhere(const FlatProgram &FP, unsigned Ctx,
                                         unsigned Pc) {
  const FlatBody &B = bodyOf(FP, Ctx);
  std::string Label =
      Pc < B.Steps.size() ? B.Steps[Pc].Label : std::string("<end>");
  return format("%s, step %u: %s", contextName(FP, Ctx).c_str(), Pc,
                Label.c_str());
}

//===----------------------------------------------------------------------===//
// Hole collection and bounded enumeration.
//===----------------------------------------------------------------------===//

void psketch::analysis::collectHoles(ExprRef E, std::set<unsigned> &Out) {
  if (!E)
    return;
  if (E->Kind == ExprKind::HoleRead || E->Kind == ExprKind::Choice)
    Out.insert(E->Id);
  for (ExprRef Op : E->Ops)
    collectHoles(Op, Out);
}

bool psketch::analysis::mentionsHole(ExprRef E, unsigned HoleId) {
  if (!E)
    return false;
  if ((E->Kind == ExprKind::HoleRead || E->Kind == ExprKind::Choice) &&
      E->Id == HoleId)
    return true;
  for (ExprRef Op : E->Ops)
    if (mentionsHole(Op, HoleId))
      return true;
  return false;
}

bool psketch::analysis::forEachAssignment(
    const Program &P, const std::vector<unsigned> &HoleIds, uint64_t Cap,
    const std::function<void(const HoleAssignment &)> &Fn) {
  uint64_t Space = 1;
  for (unsigned H : HoleIds) {
    if (H >= P.holes().size())
      return false;
    Space *= P.holes()[H].NumChoices;
    if (Space > Cap)
      return false;
  }
  HoleAssignment A(P.holes().size(), 0);
  // Odometer over the listed holes.
  for (uint64_t Index = 0; Index < Space; ++Index) {
    uint64_t Rest = Index;
    for (unsigned H : HoleIds) {
      A[H] = Rest % P.holes()[H].NumChoices;
      Rest /= P.holes()[H].NumChoices;
    }
    Fn(A);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Global reads.
//===----------------------------------------------------------------------===//

void psketch::analysis::collectScalarGlobals(ExprRef E,
                                             std::set<unsigned> &Out) {
  if (!E)
    return;
  if (E->Kind == ExprKind::GlobalRead)
    Out.insert(E->Id);
  for (ExprRef Op : E->Ops)
    collectScalarGlobals(Op, Out);
}

//===----------------------------------------------------------------------===//
// Structural equality under a single-hole substitution.
//===----------------------------------------------------------------------===//

/// Resolves Choice nodes selected by the substituted hole.
static ExprRef normalizeUnder(ExprRef E, unsigned HoleId, uint64_t Value) {
  while (E && E->Kind == ExprKind::Choice && E->Id == HoleId &&
         Value < E->Ops.size())
    E = E->Ops[Value];
  return E;
}

bool psketch::analysis::exprEqualUnder(ExprRef A, ExprRef B, unsigned HoleId,
                                       uint64_t U, uint64_t V) {
  if (!A || !B)
    return A == B;
  A = normalizeUnder(A, HoleId, U);
  B = normalizeUnder(B, HoleId, V);
  bool AIsHole = A->Kind == ExprKind::HoleRead && A->Id == HoleId;
  bool BIsHole = B->Kind == ExprKind::HoleRead && B->Id == HoleId;
  if (AIsHole || BIsHole) {
    // The hole read resolves to its substituted value; allow matching
    // against a constant of the same type.
    int64_t AV, BV;
    if (AIsHole)
      AV = static_cast<int64_t>(U);
    else if (A->Kind == ExprKind::ConstInt)
      AV = A->IntValue;
    else
      return false;
    if (BIsHole)
      BV = static_cast<int64_t>(V);
    else if (B->Kind == ExprKind::ConstInt)
      BV = B->IntValue;
    else
      return false;
    return A->Ty == B->Ty && AV == BV;
  }
  if (A == B && !mentionsHole(A, HoleId))
    return true;
  if (A->Kind != B->Kind || A->Ty != B->Ty || A->Id != B->Id ||
      A->IntValue != B->IntValue || A->Ops.size() != B->Ops.size())
    return false;
  for (size_t I = 0; I < A->Ops.size(); ++I)
    if (!exprEqualUnder(A->Ops[I], B->Ops[I], HoleId, U, V))
      return false;
  return true;
}

bool psketch::analysis::locEqualUnder(const Loc &A, const Loc &B,
                                      unsigned HoleId, uint64_t U,
                                      uint64_t V) {
  if (A.LocKind != B.LocKind || A.Id != B.Id)
    return false;
  return exprEqualUnder(A.Index, B.Index, HoleId, U, V);
}

static bool stepEqualUnder(const Step &A, const Step &B, unsigned HoleId,
                           uint64_t U, uint64_t V) {
  if (!exprEqualUnder(A.StaticGuard, B.StaticGuard, HoleId, U, V) ||
      !exprEqualUnder(A.DynGuard, B.DynGuard, HoleId, U, V) ||
      !exprEqualUnder(A.WaitCond, B.WaitCond, HoleId, U, V))
    return false;
  if (A.Ops.size() != B.Ops.size())
    return false;
  for (size_t I = 0; I < A.Ops.size(); ++I) {
    const MicroOp &X = A.Ops[I];
    const MicroOp &Y = B.Ops[I];
    if (X.OpKind != Y.OpKind ||
        !exprEqualUnder(X.Pred, Y.Pred, HoleId, U, V) ||
        !exprEqualUnder(X.Value, Y.Value, HoleId, U, V) ||
        !locEqualUnder(X.Target, Y.Target, HoleId, U, V))
      return false;
  }
  return true;
}

bool psketch::analysis::programEqualUnder(const FlatProgram &FP,
                                          unsigned HoleId, uint64_t U,
                                          uint64_t V) {
  for (unsigned Ctx = 0; Ctx < numContexts(FP); ++Ctx)
    for (const Step &S : bodyOf(FP, Ctx).Steps)
      if (!stepEqualUnder(S, S, HoleId, U, V))
        return false;
  for (ExprRef C : FP.Source->staticConstraints())
    if (!exprEqualUnder(C, C, HoleId, U, V))
      return false;
  return true;
}
