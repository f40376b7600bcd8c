//===- ir/Program.cpp ------------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "ir/Program.h"

#include "support/StrUtil.h"

#include <bit>

using namespace psketch;
using namespace psketch::ir;

Program::Program(unsigned IntWidth, unsigned PoolSize)
    : IntWidth(IntWidth), PoolSize(PoolSize) {
  assert(IntWidth >= 2 && IntWidth <= 62 && "unsupported int width");
  PrologueBody.Name = "prologue";
  EpilogueBody.Name = "epilogue";
}

Expr *Program::newExpr(ExprKind Kind) {
  ExprArena.emplace_back(Kind);
  return &ExprArena.back();
}

Stmt *Program::newStmt(StmtKind Kind) {
  StmtArena.emplace_back(Kind);
  return &StmtArena.back();
}

//===----------------------------------------------------------------------===//
// Symbol tables.
//===----------------------------------------------------------------------===//

unsigned Program::addField(const std::string &Name, Type Ty) {
  FieldTable.push_back(Field{Name, Ty});
  return static_cast<unsigned>(FieldTable.size() - 1);
}

unsigned Program::addGlobal(const std::string &Name, Type Ty, int64_t Init) {
  GlobalTable.push_back(Global{Name, Ty, 0, wrap(Init, Ty)});
  return static_cast<unsigned>(GlobalTable.size() - 1);
}

unsigned Program::addGlobalArray(const std::string &Name, Type Ty,
                                 unsigned Size, int64_t Init) {
  assert(Size > 0 && "empty global array");
  GlobalTable.push_back(Global{Name, Ty, Size, wrap(Init, Ty)});
  return static_cast<unsigned>(GlobalTable.size() - 1);
}

unsigned Program::addLocal(BodyId Id, const std::string &Name, Type Ty,
                           int64_t Init) {
  Body &B = body(Id);
  B.Locals.push_back(Local{Name, Ty, wrap(Init, Ty)});
  return static_cast<unsigned>(B.Locals.size() - 1);
}

unsigned Program::addHoleNoCount(const std::string &Name,
                                 unsigned NumChoices) {
  assert(NumChoices >= 1 && "hole needs at least one choice");
  assert(NumChoices <= (1u << (IntWidth - 1)) &&
         "hole values must fit in the (signed) int width");
  unsigned Width = 1;
  while ((1u << Width) < NumChoices)
    ++Width;
  HoleTable.push_back(Hole{Name, NumChoices, Width, /*Counted=*/false});
  return static_cast<unsigned>(HoleTable.size() - 1);
}

unsigned Program::addHole(const std::string &Name, unsigned NumChoices) {
  unsigned Id = addHoleNoCount(Name, NumChoices);
  if (NumChoices > 1) {
    SpaceFactors.push_back(BigCount(NumChoices));
    HoleTable[Id].Counted = true;
  }
  return Id;
}

BigCount Program::candidateSpaceSize() const {
  BigCount Size;
  for (const BigCount &Factor : SpaceFactors)
    Size *= Factor;
  return Size;
}

//===----------------------------------------------------------------------===//
// Bodies.
//===----------------------------------------------------------------------===//

unsigned Program::addThread(const std::string &Name) {
  Threads.emplace_back();
  Threads.back().Name = Name;
  return static_cast<unsigned>(Threads.size() - 1);
}

Body &Program::body(BodyId Id) {
  switch (Id.BodyKind) {
  case BodyId::Kind::Prologue:
    return PrologueBody;
  case BodyId::Kind::Epilogue:
    return EpilogueBody;
  case BodyId::Kind::Thread:
    assert(Id.ThreadIndex < Threads.size() && "bad thread index");
    return Threads[Id.ThreadIndex];
  }
  __builtin_unreachable();
}

const Body &Program::body(BodyId Id) const {
  return const_cast<Program *>(this)->body(Id);
}

//===----------------------------------------------------------------------===//
// Configuration.
//===----------------------------------------------------------------------===//

unsigned Program::widthOf(Type Ty) const {
  switch (Ty) {
  case Type::Bool:
    return 1;
  case Type::Int:
    return IntWidth;
  case Type::Ptr: {
    unsigned Width = 1;
    while ((1u << Width) <= PoolSize)
      ++Width;
    return Width;
  }
  }
  __builtin_unreachable();
}

int64_t Program::wrap(int64_t Value, Type Ty) const {
  switch (Ty) {
  case Type::Bool:
    return Value != 0 ? 1 : 0;
  case Type::Ptr: {
    unsigned W = widthOf(Type::Ptr);
    return Value & ((int64_t(1) << W) - 1);
  }
  case Type::Int: {
    uint64_t Mask = (uint64_t(1) << IntWidth) - 1;
    uint64_t U = static_cast<uint64_t>(Value) & Mask;
    uint64_t SignBit = uint64_t(1) << (IntWidth - 1);
    if (U & SignBit)
      return static_cast<int64_t>(U) - (int64_t(1) << IntWidth);
    return static_cast<int64_t>(U);
  }
  }
  __builtin_unreachable();
}

//===----------------------------------------------------------------------===//
// Expression factories.
//===----------------------------------------------------------------------===//

ExprRef Program::constInt(int64_t Value, Type Ty) {
  Expr *E = newExpr(ExprKind::ConstInt);
  E->Ty = Ty;
  E->IntValue = wrap(Value, Ty);
  return E;
}

ExprRef Program::global(unsigned Id) {
  assert(Id < GlobalTable.size() && "bad global id");
  assert(GlobalTable[Id].ArraySize == 0 && "scalar read of array global");
  Expr *E = newExpr(ExprKind::GlobalRead);
  E->Id = Id;
  E->Ty = GlobalTable[Id].Ty;
  return E;
}

ExprRef Program::globalAt(unsigned Id, ExprRef Index) {
  assert(Id < GlobalTable.size() && "bad global id");
  assert(GlobalTable[Id].ArraySize > 0 && "indexed read of scalar global");
  Expr *E = newExpr(ExprKind::GlobalArrayRead);
  E->Id = Id;
  E->Ty = GlobalTable[Id].Ty;
  E->Ops.push_back(Index);
  return E;
}

ExprRef Program::local(unsigned Slot, Type Ty) {
  Expr *E = newExpr(ExprKind::LocalRead);
  E->Id = Slot;
  E->Ty = Ty;
  return E;
}

ExprRef Program::field(ExprRef Pointer, unsigned FieldId) {
  assert(FieldId < FieldTable.size() && "bad field id");
  assert(Pointer->Ty == Type::Ptr && "field access through non-pointer");
  Expr *E = newExpr(ExprKind::FieldRead);
  E->Id = FieldId;
  E->Ty = FieldTable[FieldId].Ty;
  E->Ops.push_back(Pointer);
  return E;
}

// holeValue and choiceOf build a node for any hole id, alternative count
// and alternative types: a malformed reference is
// analysis::validateProgram's typed diagnostic, not a builder abort.
ExprRef Program::holeValue(unsigned HoleId) {
  Expr *E = newExpr(ExprKind::HoleRead);
  E->Id = HoleId;
  E->Ty = Type::Int;
  return E;
}

ExprRef Program::choose(const std::string &Name,
                        std::vector<ExprRef> Alternatives) {
  assert(!Alternatives.empty() && "empty generator");
  if (Alternatives.size() == 1)
    return Alternatives[0];
  Type Ty = Alternatives[0]->Ty;
  for ([[maybe_unused]] ExprRef Alt : Alternatives)
    assert(Alt->Ty == Ty && "generator alternatives disagree on type");
  unsigned HoleId =
      addHole(Name, static_cast<unsigned>(Alternatives.size()));
  Expr *E = newExpr(ExprKind::Choice);
  E->Id = HoleId;
  E->Ty = Ty;
  E->Ops = std::move(Alternatives);
  return E;
}

ExprRef Program::choiceOf(unsigned HoleId, std::vector<ExprRef> Alternatives) {
  assert(!Alternatives.empty() && "empty generator");
  Expr *E = newExpr(ExprKind::Choice);
  E->Id = HoleId;
  E->Ty = Alternatives[0]->Ty;
  E->Ops = std::move(Alternatives);
  return E;
}

ExprRef Program::binop(ExprKind Kind, ExprRef A, ExprRef B, Type ResultTy) {
  Expr *E = newExpr(Kind);
  E->Ty = ResultTy;
  E->Ops.push_back(A);
  E->Ops.push_back(B);
  return E;
}

ExprRef Program::add(ExprRef A, ExprRef B) {
  return binop(ExprKind::Add, A, B, A->Ty);
}

ExprRef Program::sub(ExprRef A, ExprRef B) {
  return binop(ExprKind::Sub, A, B, A->Ty);
}

ExprRef Program::eq(ExprRef A, ExprRef B) {
  return binop(ExprKind::Eq, A, B, Type::Bool);
}

ExprRef Program::ne(ExprRef A, ExprRef B) {
  return binop(ExprKind::Ne, A, B, Type::Bool);
}

ExprRef Program::lt(ExprRef A, ExprRef B) {
  return binop(ExprKind::Lt, A, B, Type::Bool);
}

ExprRef Program::le(ExprRef A, ExprRef B) {
  return binop(ExprKind::Le, A, B, Type::Bool);
}

ExprRef Program::land(ExprRef A, ExprRef B) {
  return binop(ExprKind::And, A, B, Type::Bool);
}

ExprRef Program::lor(ExprRef A, ExprRef B) {
  return binop(ExprKind::Or, A, B, Type::Bool);
}

ExprRef Program::lnot(ExprRef A) {
  Expr *E = newExpr(ExprKind::Not);
  E->Ty = Type::Bool;
  E->Ops.push_back(A);
  return E;
}

ExprRef Program::ite(ExprRef Cond, ExprRef Then, ExprRef Else) {
  assert(Then->Ty == Else->Ty && "ite arm types disagree");
  Expr *E = newExpr(ExprKind::Ite);
  E->Ty = Then->Ty;
  E->Ops.push_back(Cond);
  E->Ops.push_back(Then);
  E->Ops.push_back(Else);
  return E;
}

//===----------------------------------------------------------------------===//
// Location factories.
//===----------------------------------------------------------------------===//

Loc Program::locGlobal(unsigned Id) const {
  assert(Id < GlobalTable.size() && GlobalTable[Id].ArraySize == 0 &&
         "bad scalar global");
  Loc L;
  L.LocKind = Loc::Kind::Global;
  L.Id = Id;
  return L;
}

Loc Program::locGlobalAt(unsigned Id, ExprRef Index) const {
  assert(Id < GlobalTable.size() && GlobalTable[Id].ArraySize > 0 &&
         "bad array global");
  Loc L;
  L.LocKind = Loc::Kind::GlobalArray;
  L.Id = Id;
  L.Index = Index;
  return L;
}

Loc Program::locLocal(unsigned Slot) const {
  Loc L;
  L.LocKind = Loc::Kind::Local;
  L.Id = Slot;
  return L;
}

Loc Program::locField(ExprRef Pointer, unsigned FieldId) const {
  assert(FieldId < FieldTable.size() && "bad field id");
  Loc L;
  L.LocKind = Loc::Kind::Field;
  L.Id = FieldId;
  L.Index = Pointer;
  return L;
}

//===----------------------------------------------------------------------===//
// Statement factories.
//===----------------------------------------------------------------------===//

StmtRef Program::nop() { return newStmt(StmtKind::Nop); }

StmtRef Program::seq(std::vector<StmtRef> Stmts) {
  Stmt *S = newStmt(StmtKind::Seq);
  S->Children = std::move(Stmts);
  return S;
}

StmtRef Program::assign(Loc Target, ExprRef Value) {
  Stmt *S = newStmt(StmtKind::Assign);
  S->Target = Target;
  S->Value = Value;
  return S;
}

StmtRef Program::choiceAssign(const std::string &Name, std::vector<Loc> Targets,
                              ExprRef Value) {
  assert(!Targets.empty() && "empty l-value generator");
  if (Targets.size() == 1)
    return assign(Targets[0], Value);
  Stmt *S = newStmt(StmtKind::ChoiceAssign);
  S->HoleId = addHole(Name, static_cast<unsigned>(Targets.size()));
  S->TargetChoices = std::move(Targets);
  S->Value = Value;
  return S;
}

StmtRef Program::swap(const std::string &Name, Loc Tmp,
                      std::vector<Loc> Targets, ExprRef Value) {
  assert(!Targets.empty() && "swap needs a location");
  Stmt *S = newStmt(StmtKind::Swap);
  S->Target = Tmp;
  S->Value = Value;
  if (Targets.size() > 1)
    S->HoleId = addHole(Name, static_cast<unsigned>(Targets.size()));
  S->TargetChoices = std::move(Targets);
  return S;
}

StmtRef Program::ifS(ExprRef Cond, StmtRef Then, StmtRef Else) {
  Stmt *S = newStmt(StmtKind::If);
  S->Cond = Cond;
  S->Children.push_back(Then);
  S->Children.push_back(Else);
  return S;
}

StmtRef Program::whileS(ExprRef Cond, StmtRef BodyStmt, unsigned UnrollBound) {
  assert(UnrollBound > 0 && "while needs a positive unroll bound");
  Stmt *S = newStmt(StmtKind::While);
  S->Cond = Cond;
  S->Children.push_back(BodyStmt);
  S->UnrollBound = UnrollBound;
  return S;
}

StmtRef Program::atomic(StmtRef BodyStmt) {
  Stmt *S = newStmt(StmtKind::Atomic);
  S->Children.push_back(BodyStmt);
  return S;
}

StmtRef Program::condAtomic(ExprRef Cond, StmtRef BodyStmt) {
  Stmt *S = newStmt(StmtKind::CondAtomic);
  S->Cond = Cond;
  S->Children.push_back(BodyStmt);
  return S;
}

StmtRef Program::assertS(ExprRef Cond, const std::string &Label) {
  Stmt *S = newStmt(StmtKind::Assert);
  S->Cond = Cond;
  S->Label = Label;
  return S;
}

StmtRef Program::alloc(Loc Target) {
  Stmt *S = newStmt(StmtKind::Alloc);
  S->Target = Target;
  return S;
}

std::vector<unsigned> Program::makeReorderHoles(const std::string &Name,
                                                unsigned K,
                                                ReorderEncoding Enc) {
  std::vector<unsigned> Holes;
  if (K < 2)
    return Holes;
  addSpaceFactor(BigCount::factorial(K));
  if (Enc == ReorderEncoding::Quadratic) {
    // k order holes of k choices; legal assignments are permutations.
    for (unsigned I = 0; I < K; ++I)
      Holes.push_back(
          addHoleNoCount(format("%s.order[%u]", Name.c_str(), I), K));
    for (unsigned I = 0; I < K; ++I)
      for (unsigned J = I + 1; J < K; ++J)
        addStaticConstraint(ne(holeValue(Holes[I]), holeValue(Holes[J])));
    return Holes;
  }
  // Insertion positions: statement m is inserted into one of the
  // L+1 = 2^m gaps of the current expanded list (Section 7.2's
  // exponential encoding; redundant but often cheaper).
  assert(K <= 16 && "exponential reorder encoding limited to 16 stmts");
  for (unsigned M = 1; M < K; ++M)
    Holes.push_back(
        addHoleNoCount(format("%s.ins[%u]", Name.c_str(), M), 1u << M));
  return Holes;
}

StmtRef Program::reorderOf(const std::vector<unsigned> &Holes,
                           std::vector<StmtRef> Stmts, ReorderEncoding Enc) {
  Stmt *S = newStmt(StmtKind::Reorder);
  S->Encoding = Enc;
  S->Children = std::move(Stmts);
  S->ReorderHoles = Holes;
  [[maybe_unused]] unsigned K = static_cast<unsigned>(S->Children.size());
  assert((K < 2 && Holes.empty()) ||
         (Enc == ReorderEncoding::Quadratic ? Holes.size() == K
                                            : Holes.size() == K - 1));
  return S;
}

StmtRef Program::reorder(const std::string &Name, std::vector<StmtRef> Stmts,
                         ReorderEncoding Enc) {
  std::vector<unsigned> Holes =
      makeReorderHoles(Name, static_cast<unsigned>(Stmts.size()), Enc);
  return reorderOf(Holes, std::move(Stmts), Enc);
}

StmtRef Program::choiceAssignOf(unsigned HoleId, std::vector<Loc> Targets,
                                ExprRef Value) {
  assert(HoleId < HoleTable.size() &&
         Targets.size() == HoleTable[HoleId].NumChoices &&
         "target count must match the shared hole");
  Stmt *S = newStmt(StmtKind::ChoiceAssign);
  S->HoleId = HoleId;
  S->TargetChoices = std::move(Targets);
  S->Value = Value;
  return S;
}

StmtRef Program::swapOf(unsigned HoleId, Loc Tmp, std::vector<Loc> Targets,
                        ExprRef Value) {
  assert(HoleId < HoleTable.size() &&
         Targets.size() == HoleTable[HoleId].NumChoices &&
         "target count must match the shared hole");
  Stmt *S = newStmt(StmtKind::Swap);
  S->Target = Tmp;
  S->Value = Value;
  S->HoleId = HoleId;
  S->TargetChoices = std::move(Targets);
  return S;
}

StmtRef Program::lock(Loc Owner, ExprRef OwnerRead, ExprRef Pid) {
  // lock(lk):  atomic (lk.owner == -1) { lk.owner = pid; }
  return condAtomic(eq(OwnerRead, constInt(-1)), assign(Owner, Pid));
}

StmtRef Program::unlock(Loc Owner, ExprRef OwnerRead, ExprRef Pid,
                        const std::string &Label) {
  // unlock(lk): atomic { assert lk.owner == pid; lk.owner = -1; }
  return atomic(seq({assertS(eq(OwnerRead, Pid), Label),
                     assign(Owner, constInt(-1))}));
}

ExprRef Program::readOfShared(const Loc &L) {
  switch (L.LocKind) {
  case Loc::Kind::Global:
    return global(L.Id);
  case Loc::Kind::GlobalArray:
    return globalAt(L.Id, L.Index);
  case Loc::Kind::Field:
    return field(L.Index, L.Id);
  case Loc::Kind::Local:
    break;
  }
  assert(false && "readOfShared needs a shared location");
  return constInt(0);
}

StmtRef Program::cas(Loc Target, ExprRef OldValue, ExprRef NewValue) {
  return atomic(
      ifS(eq(readOfShared(Target), OldValue), assign(Target, NewValue)));
}

StmtRef Program::casFlag(Loc Target, ExprRef OldValue, ExprRef NewValue,
                         Loc SuccessFlag) {
  assert(SuccessFlag.LocKind == Loc::Kind::Local &&
         "the success flag must be a local");
  ExprRef FlagRead = local(SuccessFlag.Id, Type::Bool);
  // The flag is computed from the pre-step state, then gates the store.
  return atomic(seq({assign(SuccessFlag, eq(readOfShared(Target), OldValue)),
                     ifS(FlagRead, assign(Target, NewValue))}));
}
