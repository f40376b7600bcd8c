//===- desugar/Flatten.cpp -------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "desugar/Flatten.h"

#include "ir/Printer.h"
#include "ir/ReorderExpand.h"
#include "support/StrUtil.h"

#include <cassert>

using namespace psketch;
using namespace psketch::flat;
using namespace psketch::ir;

namespace {

/// Flattens one body of a program into steps.
class Flattener {
public:
  Flattener(Program &P) : P(P) {}

  FlatBody run(BodyId Id) {
    Cur = Id;
    Steps.clear();
    StaticG = nullptr;
    DynG = nullptr;
    if (StmtRef Root = P.body(Id).Root)
      flattenStmt(Root);
    FlatBody B;
    B.Steps = std::move(Steps);
    return B;
  }

private:
  Program &P;
  BodyId Cur{};
  std::vector<Step> Steps;
  ExprRef StaticG = nullptr;
  ExprRef DynG = nullptr;
  unsigned TempCount = 0;

  /// Conjunction with null-as-true.
  ExprRef conj(ExprRef A, ExprRef B) {
    if (!A)
      return B;
    if (!B)
      return A;
    return P.land(A, B);
  }

  unsigned newTemp(Type Ty, const char *Tag) {
    return P.addLocal(Cur, format("%%t%u_%s", TempCount++, Tag), Ty, 0);
  }

  ExprRef readOfLoc(const Loc &L) {
    switch (L.LocKind) {
    case Loc::Kind::Global:
      return P.global(L.Id);
    case Loc::Kind::GlobalArray:
      return P.globalAt(L.Id, L.Index);
    case Loc::Kind::Local:
      return P.local(L.Id, P.body(Cur).Locals[L.Id].Ty);
    case Loc::Kind::Field:
      return P.field(L.Index, L.Id);
    }
    __builtin_unreachable();
  }

  static bool locShared(const Loc &L) {
    return L.writesShared() || L.addressReadsShared();
  }

  static bool stepTouchesShared(const Step &S) {
    if (S.WaitCond)
      return true;
    for (const MicroOp &Op : S.Ops) {
      if (Op.Pred && Op.Pred->readsShared())
        return true;
      if (Op.Value && Op.Value->readsShared())
        return true;
      if (Op.OpKind == MicroOp::Kind::Alloc)
        return true;
      if (Op.OpKind == MicroOp::Kind::Write && locShared(Op.Target))
        return true;
    }
    return false;
  }

  void emit(Step S, const std::string &Label) {
    S.StaticGuard = StaticG;
    S.DynGuard = DynG;
    S.Label = Label;
    S.TouchesShared = stepTouchesShared(S);
    Steps.push_back(std::move(S));
  }

  std::string labelOf(StmtRef S) {
    Printer Pr(P);
    std::string Text = Pr.stmt(S, Cur);
    size_t Newline = Text.find('\n');
    if (Newline != std::string::npos)
      Text = Text.substr(0, Newline);
    return trim(Text);
  }

  MicroOp write(ExprRef Pred, Loc Target, ExprRef Value) {
    MicroOp Op;
    Op.OpKind = MicroOp::Kind::Write;
    Op.Pred = Pred;
    Op.Target = Target;
    Op.Value = Value;
    return Op;
  }

  MicroOp check(ExprRef Pred, ExprRef Cond, std::string Label) {
    MicroOp Op;
    Op.OpKind = MicroOp::Kind::Assert;
    Op.Pred = Pred;
    Op.Value = Cond;
    Op.Label = std::move(Label);
    return Op;
  }

  MicroOp allocate(ExprRef Pred, Loc Target) {
    MicroOp Op;
    Op.OpKind = MicroOp::Kind::Alloc;
    Op.Pred = Pred;
    Op.Target = Target;
    return Op;
  }

  /// Emits the micro-ops of `Target = AtomicSwap({|locs|}, Value)`.
  /// The value and every location address are captured into scratch
  /// locals before the destination is overwritten, matching the paper's
  /// AtomicSwap specification (the new value is an argument, evaluated
  /// before the swap mutates anything).
  void swapOps(const Stmt *S, ExprRef Pred, std::vector<MicroOp> &Ops) {
    unsigned ValTmp = newTemp(S->Value->Ty, "swapval");
    Ops.push_back(write(Pred, P.locLocal(ValTmp), S->Value));
    ExprRef ValRead = P.local(ValTmp, S->Value->Ty);

    for (size_t J = 0; J < S->TargetChoices.size(); ++J) {
      ExprRef PJ = Pred;
      if (S->TargetChoices.size() > 1)
        PJ = conj(Pred, P.eq(P.holeValue(S->HoleId),
                             P.constInt(static_cast<int64_t>(J))));
      Loc L = S->TargetChoices[J];
      if (L.LocKind == Loc::Kind::Field) {
        unsigned AddrTmp = newTemp(Type::Ptr, "swapaddr");
        Ops.push_back(write(PJ, P.locLocal(AddrTmp), L.Index));
        L.Index = P.local(AddrTmp, Type::Ptr);
      } else if (L.LocKind == Loc::Kind::GlobalArray) {
        unsigned AddrTmp = newTemp(Type::Int, "swapidx");
        Ops.push_back(write(PJ, P.locLocal(AddrTmp), L.Index));
        L.Index = P.local(AddrTmp, Type::Int);
      }
      Ops.push_back(write(PJ, S->Target, readOfLoc(L)));
      Ops.push_back(write(PJ, L, ValRead));
    }
  }

  /// Collects the predicated micro-ops of a statement inside an atomic
  /// section. Only loop-free, non-blocking statements are allowed there.
  void atomicOps(StmtRef S, ExprRef Pred, std::vector<MicroOp> &Ops) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Nop:
      return;
    case StmtKind::Seq:
      for (StmtRef Child : S->Children)
        atomicOps(Child, Pred, Ops);
      return;
    case StmtKind::Atomic:
      atomicOps(S->Children[0], Pred, Ops);
      return;
    case StmtKind::Assign:
      Ops.push_back(write(Pred, S->Target, S->Value));
      return;
    case StmtKind::ChoiceAssign:
      for (size_t J = 0; J < S->TargetChoices.size(); ++J)
        Ops.push_back(write(conj(Pred, P.eq(P.holeValue(S->HoleId),
                                            P.constInt(static_cast<int64_t>(J)))),
                            S->TargetChoices[J], S->Value));
      return;
    case StmtKind::Swap:
      swapOps(S, Pred, Ops);
      return;
    case StmtKind::Assert:
      Ops.push_back(check(Pred, S->Cond, S->Label));
      return;
    case StmtKind::Alloc:
      Ops.push_back(allocate(Pred, S->Target));
      return;
    case StmtKind::If: {
      if (S->Cond->isHoleOnly()) {
        atomicOps(S->Children[0], conj(Pred, S->Cond), Ops);
        atomicOps(S->Children[1], conj(Pred, P.lnot(S->Cond)), Ops);
        return;
      }
      // Capture the condition once so the else arm cannot observe writes
      // made by the then arm.
      unsigned CondTmp = newTemp(Type::Bool, "acond");
      Ops.push_back(write(Pred, P.locLocal(CondTmp), S->Cond));
      ExprRef CondRead = P.local(CondTmp, Type::Bool);
      atomicOps(S->Children[0], conj(Pred, CondRead), Ops);
      atomicOps(S->Children[1], conj(Pred, P.lnot(CondRead)), Ops);
      return;
    }
    case StmtKind::While:
    case StmtKind::CondAtomic:
    case StmtKind::Reorder:
      assert(false && "loops, waits and reorders not allowed inside atomic");
      return;
    }
  }

  void flattenStmt(StmtRef S) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Nop:
      return;
    case StmtKind::Seq:
      for (StmtRef Child : S->Children)
        flattenStmt(Child);
      return;
    case StmtKind::Assign: {
      Step St;
      St.Ops.push_back(write(nullptr, S->Target, S->Value));
      emit(std::move(St), labelOf(S));
      return;
    }
    case StmtKind::ChoiceAssign:
    case StmtKind::Swap:
    case StmtKind::Assert:
    case StmtKind::Alloc: {
      Step St;
      atomicOps(S, nullptr, St.Ops);
      emit(std::move(St), labelOf(S));
      return;
    }
    case StmtKind::Atomic: {
      Step St;
      atomicOps(S->Children[0], nullptr, St.Ops);
      emit(std::move(St), "atomic " + labelOf(S->Children[0]));
      return;
    }
    case StmtKind::CondAtomic: {
      Step St;
      St.WaitCond = S->Cond;
      atomicOps(S->Children[0], nullptr, St.Ops);
      emit(std::move(St), labelOf(S));
      return;
    }
    case StmtKind::If: {
      bool HasElse = S->Children[1] && S->Children[1]->Kind != StmtKind::Nop;
      if (S->Cond->isHoleOnly()) {
        ExprRef Saved = StaticG;
        StaticG = conj(Saved, S->Cond);
        flattenStmt(S->Children[0]);
        if (HasElse) {
          StaticG = conj(Saved, P.lnot(S->Cond));
          flattenStmt(S->Children[1]);
        }
        StaticG = Saved;
        return;
      }
      unsigned ThenTmp = newTemp(Type::Bool, "then");
      unsigned ElseTmp = HasElse ? newTemp(Type::Bool, "else") : 0;
      Step Eval;
      Eval.Ops.push_back(write(nullptr, P.locLocal(ThenTmp), S->Cond));
      if (HasElse)
        Eval.Ops.push_back(
            write(nullptr, P.locLocal(ElseTmp), P.lnot(S->Cond)));
      Printer Pr(P);
      emit(std::move(Eval), "if (" + Pr.expr(S->Cond, Cur) + ")");

      ExprRef SavedDyn = DynG;
      DynG = P.local(ThenTmp, Type::Bool);
      flattenStmt(S->Children[0]);
      if (HasElse) {
        DynG = P.local(ElseTmp, Type::Bool);
        flattenStmt(S->Children[1]);
      }
      DynG = SavedDyn;
      return;
    }
    case StmtKind::While: {
      ExprRef SavedDyn = DynG;
      Printer Pr(P);
      std::string CondText = Pr.expr(S->Cond, Cur);
      for (unsigned K = 0; K < S->UnrollBound; ++K) {
        unsigned IterTmp = newTemp(Type::Bool, "while");
        Step Eval;
        Eval.Ops.push_back(write(nullptr, P.locLocal(IterTmp), S->Cond));
        emit(std::move(Eval),
             format("while#%u (%s)", K, CondText.c_str()));
        DynG = P.local(IterTmp, Type::Bool);
        flattenStmt(S->Children[0]);
      }
      // Termination: a candidate that still wants another iteration after
      // the unroll bound fails (bounded-liveness approximation).
      Step Bound;
      Bound.LoopBound = true;
      Bound.Ops.push_back(
          check(nullptr, P.lnot(S->Cond), "loop bound exceeded"));
      emit(std::move(Bound), format("while-bound (%s)", CondText.c_str()));
      DynG = SavedDyn;
      return;
    }
    case StmtKind::Reorder: {
      std::vector<ReorderEntry> Entries = expandReorder(P, S);
      ExprRef Saved = StaticG;
      for (const ReorderEntry &E : Entries) {
        StaticG = conj(Saved, E.Cond);
        flattenStmt(E.Child);
      }
      StaticG = Saved;
      return;
    }
    }
  }
};

} // namespace

FlatProgram psketch::flat::flatten(Program &P) {
  FlatProgram FP;
  FP.Source = &P;
  Flattener F(P);
  FP.Prologue = F.run(BodyId::prologue());
  for (unsigned I = 0; I < P.numThreads(); ++I)
    FP.Threads.push_back(F.run(BodyId::thread(I)));
  FP.Epilogue = F.run(BodyId::epilogue());
  return FP;
}
