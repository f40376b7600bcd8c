//===- tests/TestSupport.h - Helpers shared by the checker tests -*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Subjects and comparisons more than one test file needs: the lightest
/// row of a Figure 9 family, a seeded random candidate, the racy/atomic
/// two-thread counter, the byte-for-byte counterexample comparison the
/// checker's reproducibility contract promises, and the replay that
/// shows a counterexample is a real execution.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_TESTS_TESTSUPPORT_H
#define PSKETCH_TESTS_TESTSUPPORT_H

#include "benchmarks/Suite.h"
#include "ir/Program.h"
#include "support/Rng.h"
#include "verify/ModelChecker.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

namespace psketch {
namespace test {

/// The lightest entry of one suite family (lowest CostClass, first on
/// ties).
inline std::optional<bench::SuiteEntry> lightestRow(const std::string &Family) {
  auto Entries = bench::paperSuite(Family);
  if (Entries.empty())
    return std::nullopt;
  size_t Best = 0;
  for (size_t I = 1; I < Entries.size(); ++I)
    if (Entries[I].CostClass < Entries[Best].CostClass)
      Best = I;
  return Entries[Best];
}

/// A uniformly random value for every hole of \p P.
inline ir::HoleAssignment randomAssignment(const ir::Program &P, Rng &R) {
  ir::HoleAssignment A(P.holes().size(), 0);
  for (size_t H = 0; H < A.size(); ++H)
    A[H] = R.below(P.holes()[H].NumChoices);
  return A;
}

/// \p Threads threads (two by default) increment a shared counter \p Count
/// times each; \p Atomic selects protected or racy increments. The
/// epilogue asserts the total equals \p Expected.
inline void buildCounter(ir::Program &P, bool Atomic, int Count,
                         int Expected, int Threads = 2) {
  using namespace ir;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  for (int T = 0; T < Threads; ++T) {
    unsigned Id = P.addThread("inc");
    BodyId B = BodyId::thread(Id);
    unsigned Tmp = P.addLocal(B, "tmp", Type::Int, 0);
    std::vector<StmtRef> Stmts;
    for (int I = 0; I < Count; ++I) {
      StmtRef Read = P.assign(P.locLocal(Tmp), P.global(X));
      StmtRef Write = P.assign(
          P.locGlobal(X), P.add(P.local(Tmp, Type::Int), P.constInt(1)));
      if (Atomic)
        Stmts.push_back(P.atomic(P.seq({Read, Write})));
      else {
        Stmts.push_back(Read);
        Stmts.push_back(Write);
      }
    }
    P.setRoot(B, P.seq(std::move(Stmts)));
  }
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(Expected)), "total"));
}

/// Byte-for-byte counterexample equality: phase, violation kind and
/// label, schedule and deadlock set.
inline void expectSameCex(const verify::CheckResult &A,
                          const verify::CheckResult &B,
                          const std::string &Tag) {
  ASSERT_EQ(A.Cex.has_value(), B.Cex.has_value()) << Tag;
  if (!A.Cex)
    return;
  EXPECT_EQ(A.Cex->Where, B.Cex->Where) << Tag;
  EXPECT_EQ(A.Cex->V.VKind, B.Cex->V.VKind) << Tag;
  EXPECT_EQ(A.Cex->V.Label, B.Cex->V.Label) << Tag;
  EXPECT_TRUE(A.Cex->Steps == B.Cex->Steps) << Tag;
  EXPECT_TRUE(A.Cex->DeadlockSet == B.Cex->DeadlockSet) << Tag;
}

/// Replays \p Cex on \p M from the initial state: every step runs at its
/// recorded pc, and the recorded violation fires where the trace says.
inline void expectReplays(const exec::Machine &M,
                          const verify::Counterexample &Cex,
                          const std::string &Tag) {
  using exec::StepResult;
  using Phase = verify::Counterexample::Phase;
  exec::State S = M.initialState();
  exec::Violation V;
  bool PrologueOk = M.runToCompletion(S, M.prologueCtx(), V);
  if (Cex.Where == Phase::Prologue) {
    EXPECT_FALSE(PrologueOk) << Tag;
    EXPECT_EQ(V.Label, Cex.V.Label) << Tag;
    return;
  }
  ASSERT_TRUE(PrologueOk) << Tag;
  const bool FailsOnStep = Cex.Where == Phase::Parallel &&
                           Cex.V.VKind != exec::Violation::Kind::Deadlock;
  for (size_t I = 0; I < Cex.Steps.size(); ++I) {
    exec::Violation SV;
    exec::ExecOutcome Out = M.execStep(S, Cex.Steps[I].Thread, SV);
    ASSERT_EQ(Out.ExecutedPc, Cex.Steps[I].Pc) << Tag << " step " << I;
    if (FailsOnStep && I + 1 == Cex.Steps.size()) {
      EXPECT_EQ(Out.Result, StepResult::Violated) << Tag;
      EXPECT_EQ(SV.Label, Cex.V.Label) << Tag;
      return;
    }
    ASSERT_EQ(Out.Result, StepResult::Ok) << Tag << " step " << I;
  }
  ASSERT_FALSE(FailsOnStep) << Tag << ": empty trace";
  if (Cex.Where == Phase::Epilogue) {
    exec::Violation EV;
    EXPECT_FALSE(M.runToCompletion(S, M.epilogueCtx(), EV)) << Tag;
    EXPECT_EQ(EV.Label, Cex.V.Label) << Tag;
    return;
  }
  // A parallel deadlock: every live thread blocks, at its deadlock-set
  // step.
  std::vector<verify::TraceStep> Blocked;
  for (unsigned Ctx = 0; Ctx < M.numThreads(); ++Ctx) {
    exec::State Probe = S;
    exec::Violation BV;
    exec::ExecOutcome Out = M.execStep(Probe, Ctx, BV);
    if (Out.Result == StepResult::Finished)
      continue;
    EXPECT_EQ(Out.Result, StepResult::Blocked) << Tag << " thread " << Ctx;
    Blocked.push_back(verify::TraceStep{Ctx, Out.ExecutedPc});
  }
  EXPECT_FALSE(Blocked.empty()) << Tag;
  EXPECT_TRUE(Blocked == Cex.DeadlockSet) << Tag;
}

} // namespace test
} // namespace psketch

#endif // PSKETCH_TESTS_TESTSUPPORT_H
