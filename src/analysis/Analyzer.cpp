//===- analysis/Analyzer.cpp -----------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "support/StrUtil.h"

using namespace psketch;
using namespace psketch::analysis;
using namespace psketch::ir;

namespace {

/// The pre-pass passes, then (with \p Lint) the lint-only ones, all into
/// one sink so lint() lists analyze()'s findings first.
AnalysisResult runPasses(Program &P, const flat::FlatProgram &FP,
                         bool AbsInt, bool Lint) {
  AnalysisResult Out;
  DiagnosticSink Sink;
  runHoleSpacePrune(P, FP, Sink, Out);
  runConstantAsserts(P, FP, Sink, Out);
  if (AbsInt)
    runAbsIntScreen(P, FP, Lint, Sink, Out);
  if (Lint) {
    runSketchLint(P, FP, Sink);
    runShapeLint(P, FP, Sink);
  }
  Out.Diags = Sink.take();
  return Out;
}

} // namespace

AnalysisResult psketch::analysis::analyze(Program &P,
                                          const flat::FlatProgram &FP,
                                          const AnalysisConfig &Cfg) {
  return runPasses(P, FP, Cfg.AbsInt, /*Lint=*/false);
}

std::vector<Diagnostic> psketch::analysis::lint(Program &P,
                                                const flat::FlatProgram &FP) {
  return runPasses(P, FP, /*AbsInt=*/true, /*Lint=*/true).Diags;
}

//===----------------------------------------------------------------------===//
// validateProgram
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *FrontendPass = "frontend";

struct Validator {
  const Program &P;
  DiagnosticSink Sink;
  std::string Where; // current body name

  void checkExpr(ExprRef E, unsigned NumLocals) {
    if (!E)
      return;
    switch (E->Kind) {
    case ExprKind::GlobalRead:
    case ExprKind::GlobalArrayRead:
      if (E->Id >= P.globals().size())
        Sink.error(FrontendPass,
                   format("reference to undefined global #%u", E->Id),
                   Where);
      break;
    case ExprKind::LocalRead:
      if (E->Id >= NumLocals)
        Sink.error(FrontendPass,
                   format("reference to undefined local #%u", E->Id), Where);
      break;
    case ExprKind::FieldRead:
      if (E->Id >= P.fields().size())
        Sink.error(FrontendPass,
                   format("reference to undefined field #%u", E->Id), Where);
      break;
    case ExprKind::HoleRead:
      if (E->Id >= P.holes().size())
        Sink.error(FrontendPass,
                   format("reference to undefined hole #%u", E->Id), Where);
      break;
    case ExprKind::Choice:
      if (E->Id >= P.holes().size())
        Sink.error(FrontendPass,
                   format("generator bound to undefined hole #%u", E->Id),
                   Where);
      else if (P.holes()[E->Id].NumChoices != E->Ops.size())
        Sink.error(FrontendPass,
                   format("generator has %zu alternatives but its hole "
                          "'%s' has %u choices",
                          E->Ops.size(), P.holes()[E->Id].Name.c_str(),
                          P.holes()[E->Id].NumChoices),
                   Where);
      break;
    default:
      break;
    }
    for (ExprRef Op : E->Ops)
      checkExpr(Op, NumLocals);
  }

  void checkLoc(const Loc &L, unsigned NumLocals) {
    switch (L.LocKind) {
    case Loc::Kind::Global:
    case Loc::Kind::GlobalArray:
      if (L.Id >= P.globals().size())
        Sink.error(FrontendPass,
                   format("assignment to undefined global #%u", L.Id),
                   Where);
      break;
    case Loc::Kind::Local:
      if (L.Id >= NumLocals)
        Sink.error(FrontendPass,
                   format("assignment to undefined local #%u", L.Id), Where);
      break;
    case Loc::Kind::Field:
      if (L.Id >= P.fields().size())
        Sink.error(FrontendPass,
                   format("assignment to undefined field #%u", L.Id), Where);
      break;
    }
    checkExpr(L.Index, NumLocals);
  }

  void checkHoleId(unsigned HoleId, const char *What) {
    if (HoleId >= P.holes().size())
      Sink.error(FrontendPass,
                 format("%s bound to undefined hole #%u", What, HoleId),
                 Where);
  }

  void checkStmt(const Stmt *S, unsigned NumLocals) {
    if (!S)
      return;
    checkExpr(S->Cond, NumLocals);
    checkExpr(S->Value, NumLocals);
    if (S->Kind == StmtKind::Assign || S->Kind == StmtKind::Swap ||
        S->Kind == StmtKind::Alloc)
      checkLoc(S->Target, NumLocals);
    for (const Loc &L : S->TargetChoices)
      checkLoc(L, NumLocals);
    if ((S->Kind == StmtKind::ChoiceAssign || S->Kind == StmtKind::Swap) &&
        S->TargetChoices.size() > 1) {
      checkHoleId(S->HoleId, "location generator");
      if (S->HoleId < P.holes().size() &&
          P.holes()[S->HoleId].NumChoices != S->TargetChoices.size())
        Sink.error(FrontendPass,
                   format("location generator has %zu alternatives but "
                          "its hole '%s' has %u choices",
                          S->TargetChoices.size(),
                          P.holes()[S->HoleId].Name.c_str(),
                          P.holes()[S->HoleId].NumChoices),
                   Where);
    }
    if (S->Kind == StmtKind::Reorder)
      for (unsigned H : S->ReorderHoles)
        checkHoleId(H, "reorder");
    for (StmtRef Child : S->Children)
      checkStmt(Child, NumLocals);
  }

  void checkBody(BodyId Id, const std::string &Name) {
    Where = Name;
    const Body &B = P.body(Id);
    checkStmt(B.Root, static_cast<unsigned>(B.Locals.size()));
  }
};

} // namespace

std::vector<Diagnostic>
psketch::analysis::validateProgram(const Program &P) {
  Validator V{P, DiagnosticSink(), ""};
  V.checkBody(BodyId::prologue(), "prologue");
  for (unsigned T = 0; T < P.numThreads(); ++T)
    V.checkBody(BodyId::thread(T), format("thread %u", T));
  V.checkBody(BodyId::epilogue(), "epilogue");
  V.Where = "static constraints";
  for (ExprRef C : P.staticConstraints())
    V.checkExpr(C, 0);
  return V.Sink.take();
}
