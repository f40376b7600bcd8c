//===- analysis/SketchLint.cpp ---------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "analysis/SketchLint.h"

#include "analysis/SymmetryInfer.h"
#include "analysis/Util.h"
#include "ir/StaticEval.h"
#include "support/StrUtil.h"

#include <set>
#include <vector>

using namespace psketch;
using namespace psketch::analysis;
using namespace psketch::ir;
using flat::FlatProgram;
using flat::MicroOp;
using flat::Step;

namespace {

constexpr const char *PassName = "lint";

void collectLocals(ExprRef E, std::set<unsigned> &Out) {
  if (!E)
    return;
  if (E->Kind == ExprKind::LocalRead)
    Out.insert(E->Id);
  for (ExprRef Op : E->Ops)
    collectLocals(Op, Out);
}

/// Collects locals read by \p Op (predicate, value, and address).
void opReadLocals(const MicroOp &Op, std::set<unsigned> &Out) {
  collectLocals(Op.Pred, Out);
  collectLocals(Op.Value, Out);
  collectLocals(Op.Target.Index, Out);
}

} // namespace

//===----------------------------------------------------------------------===//
// Constant asserts.
//===----------------------------------------------------------------------===//

void psketch::analysis::runConstantAsserts(const Program &P,
                                           const FlatProgram &FP,
                                           DiagnosticSink &Sink,
                                           AnalysisResult &Out) {
  HoleAssignment Empty; // assigns nothing: only true constants fold
  for (unsigned Ctx = 0; Ctx < numContexts(FP); ++Ctx) {
    const flat::FlatBody &B = bodyOf(FP, Ctx);
    for (unsigned Pc = 0; Pc < B.Steps.size(); ++Pc) {
      const Step &S = B.Steps[Pc];
      for (const MicroOp &Op : S.Ops) {
        if (Op.OpKind != MicroOp::Kind::Assert)
          continue;
        auto V = tryEvalStatic(P, Op.Value, Empty);
        if (!V)
          continue;
        if (*V != 0) {
          Sink.warning(PassName,
                       format("assert '%s' is constant-true: it can never "
                              "fail and constrains nothing",
                              Op.Label.c_str()),
                       stepWhere(FP, Ctx, Pc));
          continue;
        }
        bool Unguarded = !Op.Pred && !S.StaticGuard && !S.DynGuard;
        if (Unguarded) {
          std::string Where = stepWhere(FP, Ctx, Pc);
          Sink.error(PassName,
                     format("assert '%s' is constant-false on an "
                            "unguarded step: every candidate fails",
                            Op.Label.c_str()),
                     Where);
          Out.ProvedUnresolvable = true;
          if (Out.UnresolvableWhy.empty())
            Out.UnresolvableWhy =
                format("constant-false assert at %s", Where.c_str());
        } else {
          Sink.warning(PassName,
                       format("assert '%s' is constant-false: any "
                              "execution reaching it fails",
                              Op.Label.c_str()),
                       stepWhere(FP, Ctx, Pc));
        }
      }
    }
  }
}

namespace {

//===----------------------------------------------------------------------===//
// Unobservable holes (backward liveness over locals).
//===----------------------------------------------------------------------===//

void lintUnobservableHoles(const Program &P, const FlatProgram &FP,
                           DiagnosticSink &Sink) {
  std::set<unsigned> Observable; // hole ids with an observable occurrence
  std::set<unsigned> MentionedAnywhere;

  for (unsigned Ctx = 0; Ctx < numContexts(FP); ++Ctx) {
    const flat::FlatBody &B = bodyOf(FP, Ctx);
    std::set<unsigned> Live; // locals whose value may reach an effect
    for (unsigned Pc = static_cast<unsigned>(B.Steps.size()); Pc-- > 0;) {
      const Step &S = B.Steps[Pc];
      collectHoles(S.StaticGuard, MentionedAnywhere);
      collectHoles(S.DynGuard, MentionedAnywhere);
      collectHoles(S.WaitCond, MentionedAnywhere);

      // Blocking is an effect in itself: a wait's condition (and hence
      // everything feeding it) is observable.
      bool StepObservable = S.WaitCond != nullptr;
      if (S.WaitCond) {
        collectLocals(S.WaitCond, Live);
        collectHoles(S.WaitCond, Observable);
      }

      // Ops execute in order; scan them backward so a local written for a
      // later observable op in the same step is seen live.
      for (size_t I = S.Ops.size(); I-- > 0;) {
        const MicroOp &Op = S.Ops[I];
        collectHoles(Op.Pred, MentionedAnywhere);
        collectHoles(Op.Value, MentionedAnywhere);
        collectHoles(Op.Target.Index, MentionedAnywhere);

        bool Obs = Op.OpKind == MicroOp::Kind::Assert ||
                   Op.Target.LocKind != Loc::Kind::Local ||
                   Live.count(Op.Target.Id) != 0;
        if (!Obs)
          continue;
        StepObservable = true;
        opReadLocals(Op, Live);
        collectHoles(Op.Pred, Observable);
        collectHoles(Op.Value, Observable);
        collectHoles(Op.Target.Index, Observable);
      }

      if (StepObservable) {
        collectHoles(S.StaticGuard, Observable);
        collectHoles(S.DynGuard, Observable);
        collectLocals(S.DynGuard, Live);
      }
    }
  }

  for (unsigned H = 0; H < P.holes().size(); ++H) {
    const Hole &Info = P.holes()[H];
    if (Info.NumChoices < 2)
      continue;
    if (!MentionedAnywhere.count(H))
      continue; // entirely unused: the prune pass reports (and pins) it
    if (Observable.count(H))
      continue;
    Sink.warning(PassName,
                 format("hole '%s' never reaches an observable effect; "
                        "its %u alternatives are indistinguishable",
                        Info.Name.c_str(), Info.NumChoices));
  }
}

//===----------------------------------------------------------------------===//
// Structural / specification-pattern lints.
//===----------------------------------------------------------------------===//

void lintStructure(const Program &P, const FlatProgram &FP,
                   DiagnosticSink &Sink) {
  unsigned NumAsserts = 0;
  std::set<unsigned> WrittenGlobals, ReadGlobals;
  for (unsigned Ctx = 0; Ctx < numContexts(FP); ++Ctx) {
    for (const Step &S : bodyOf(FP, Ctx).Steps) {
      collectScalarGlobals(S.DynGuard, ReadGlobals);
      collectScalarGlobals(S.WaitCond, ReadGlobals);
      for (const MicroOp &Op : S.Ops) {
        collectScalarGlobals(Op.Pred, ReadGlobals);
        collectScalarGlobals(Op.Value, ReadGlobals);
        collectScalarGlobals(Op.Target.Index, ReadGlobals);
        if (Op.OpKind == MicroOp::Kind::Assert)
          ++NumAsserts;
        else if (Op.Target.LocKind == Loc::Kind::Global)
          WrittenGlobals.insert(Op.Target.Id);
      }
    }
  }

  if (NumAsserts == 0)
    Sink.warning(PassName,
                 "sketch has no asserts: every candidate trivially "
                 "resolves, so synthesis is unconstrained");

  for (unsigned T = 0; T < FP.Threads.size(); ++T)
    if (FP.Threads[T].Steps.empty())
      Sink.note(PassName, format("thread %u has an empty body", T));

  // Asserts over globals nothing writes only re-check initial values.
  for (unsigned Ctx = 0; Ctx < numContexts(FP); ++Ctx) {
    const flat::FlatBody &B = bodyOf(FP, Ctx);
    for (unsigned Pc = 0; Pc < B.Steps.size(); ++Pc)
      for (const MicroOp &Op : B.Steps[Pc].Ops) {
        if (Op.OpKind != MicroOp::Kind::Assert)
          continue;
        std::set<unsigned> Reads;
        collectScalarGlobals(Op.Value, Reads);
        for (unsigned G : Reads)
          if (!WrittenGlobals.count(G))
            Sink.note(PassName,
                      format("assert '%s' reads global '%s', which no "
                             "step writes: it only checks the initial "
                             "value",
                             Op.Label.c_str(), P.globals()[G].Name.c_str()),
                      stepWhere(FP, Ctx, Pc));
      }
  }

  // Globals written but never read feed nothing (scalars only; arrays
  // and heap fields are too coarse to lint this way).
  for (unsigned G : WrittenGlobals)
    if (!ReadGlobals.count(G) &&
        P.globals()[G].ArraySize == 0)
      Sink.note(PassName,
                format("global '%s' is written but never read",
                       P.globals()[G].Name.c_str()));
}

//===----------------------------------------------------------------------===//
// Near-symmetry.
//===----------------------------------------------------------------------===//

/// Flags thread pairs the symmetry inference leaves in different orbits
/// but whose bodies differ at only one or two match sites (a hole choice
/// or a literal): usually an accidental asymmetry the author can repair
/// to unlock the checker's orbit reduction (docs/SYMMETRY.md).
void lintNearSymmetry(const Program &P, const FlatProgram &FP,
                      DiagnosticSink &Sink) {
  unsigned N = static_cast<unsigned>(FP.Threads.size());
  if (N < 2)
    return;
  HoleAssignment Empty; // lint runs pre-synthesis: no candidate yet
  SymmetryPlan Plan = inferSymmetry(P, FP, Empty);
  std::vector<unsigned> OrbitOf = Plan.OrbitOf;
  if (OrbitOf.size() != N)
    OrbitOf.assign(N, 0); // inference refused: treat threads pairwise
  for (unsigned A = 0; A < N; ++A)
    for (unsigned B = A + 1; B < N; ++B) {
      if (Plan.nontrivial() && OrbitOf[A] == OrbitOf[B])
        continue; // already symmetric: nothing to report
      std::optional<unsigned> Dist = nearSymmetryDistance(P, FP, A, B);
      if (Dist && *Dist >= 1 && *Dist <= 2)
        Sink.note(PassName,
                  format("near-symmetry: threads %u and %u differ at only "
                         "%u site(s); making them identical would let the "
                         "checker collapse their interleavings",
                         A, B, *Dist));
    }
}

} // namespace

void psketch::analysis::runSketchLint(const Program &P, const FlatProgram &FP,
                                      DiagnosticSink &Sink) {
  lintUnobservableHoles(P, FP, Sink);
  lintStructure(P, FP, Sink);
  lintNearSymmetry(P, FP, Sink);
}
