//===- tests/test_checker.cpp - model checker tests ------------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

#include "desugar/Flatten.h"
#include "verify/ModelChecker.h"

#include <gtest/gtest.h>

using namespace psketch;
using namespace psketch::ir;
using namespace psketch::verify;
using psketch::test::buildCounter;
using psketch::test::expectReplays;

namespace {

CheckResult check(Program &P, CheckerConfig Cfg = CheckerConfig()) {
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  return checkCandidate(M, Cfg);
}

} // namespace

TEST(Checker, AtomicCounterVerifies) {
  Program P;
  buildCounter(P, /*Atomic=*/true, 2, 4);
  CheckResult R = check(P);
  EXPECT_TRUE(R.Ok);
  EXPECT_FALSE(R.Cex.has_value());
  EXPECT_GT(R.StatesExplored, 0u);
}

TEST(Checker, RacyCounterFails) {
  Program P;
  buildCounter(P, /*Atomic=*/false, 2, 4);
  CheckResult R = check(P);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::AssertFail);
  EXPECT_EQ(R.Cex->Where, Counterexample::Phase::Epilogue);
  EXPECT_FALSE(R.Cex->Steps.empty());
}

TEST(Checker, RacyCounterFailsWithoutRandomFalsifier) {
  Program P;
  buildCounter(P, /*Atomic=*/false, 2, 4);
  CheckerConfig Cfg;
  Cfg.UseRandomFalsifier = false;
  CheckResult R = check(P, Cfg);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.RandomRunsUsed, 0u);
}

TEST(Checker, RacyCounterFailsWithoutPOR) {
  Program P;
  buildCounter(P, /*Atomic=*/false, 2, 4);
  CheckerConfig Cfg;
  Cfg.Por = PorMode::Off;
  CheckResult R = check(P, Cfg);
  EXPECT_FALSE(R.Ok);
}

TEST(Checker, PORReducesStateCount) {
  Program PA, PB;
  buildCounter(PA, /*Atomic=*/true, 3, 6);
  buildCounter(PB, /*Atomic=*/true, 3, 6);
  CheckerConfig NoPor;
  NoPor.Por = PorMode::Off;
  NoPor.UseRandomFalsifier = false;
  CheckerConfig Por;
  Por.UseRandomFalsifier = false;
  CheckResult RA = check(PA, Por);
  CheckResult RB = check(PB, NoPor);
  EXPECT_TRUE(RA.Ok);
  EXPECT_TRUE(RB.Ok);
  EXPECT_LE(RA.StatesExplored, RB.StatesExplored);
}

TEST(Checker, DeadlockDetectedWithSet) {
  Program P;
  unsigned L0 = P.addGlobal("lock0", Type::Int, -1);
  unsigned L1 = P.addGlobal("lock1", Type::Int, -1);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("phil");
    unsigned First = T == 0 ? L0 : L1;
    unsigned Second = T == 0 ? L1 : L0;
    ExprRef Pid = P.constInt(T);
    P.setRoot(
        BodyId::thread(Id),
        P.seq({P.lock(P.locGlobal(First), P.global(First), Pid),
               P.lock(P.locGlobal(Second), P.global(Second), Pid),
               P.unlock(P.locGlobal(Second), P.global(Second), Pid, "s"),
               P.unlock(P.locGlobal(First), P.global(First), Pid, "f")}));
  }
  CheckResult R = check(P);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::Deadlock);
  EXPECT_EQ(R.Cex->DeadlockSet.size(), 2u);
}

TEST(Checker, OrderedLocksVerify) {
  Program P;
  unsigned L0 = P.addGlobal("lock0", Type::Int, -1);
  unsigned L1 = P.addGlobal("lock1", Type::Int, -1);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("phil");
    ExprRef Pid = P.constInt(T);
    P.setRoot(
        BodyId::thread(Id),
        P.seq({P.lock(P.locGlobal(L0), P.global(L0), Pid),
               P.lock(P.locGlobal(L1), P.global(L1), Pid),
               P.unlock(P.locGlobal(L1), P.global(L1), Pid, "l1"),
               P.unlock(P.locGlobal(L0), P.global(L0), Pid, "l0")}));
  }
  CheckResult R = check(P);
  EXPECT_TRUE(R.Ok);
}

TEST(Checker, PrologueViolationReported) {
  Program P;
  P.setRoot(BodyId::prologue(),
            P.assertS(P.constBool(false), "prologue fail"));
  P.addThread("t");
  CheckResult R = check(P);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->Where, Counterexample::Phase::Prologue);
  EXPECT_TRUE(R.Cex->Steps.empty());
}

TEST(Checker, MemorySafetyViolationInThread) {
  Program P(8, 3);
  unsigned F = P.addField("next", Type::Ptr);
  unsigned X = P.addGlobal("p", Type::Ptr, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(X), P.field(P.global(X), F)));
  CheckResult R = check(P);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::MemUnsafe);
  EXPECT_EQ(R.Cex->Where, Counterexample::Phase::Parallel);
}

TEST(Checker, WaitConditionMemViolationCaught) {
  // The wait condition itself dereferences null.
  Program P(8, 3);
  unsigned F = P.addField("v", Type::Int);
  unsigned X = P.addGlobal("p", Type::Ptr, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.condAtomic(P.eq(P.field(P.global(X), F), P.constInt(1)),
                         P.nop()));
  CheckResult R = check(P);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::MemUnsafe);
}

TEST(Checker, TraceStepsReplayToViolation) {
  // Replaying the counterexample schedule step-for-step must reproduce
  // the violation on the same candidate.
  Program P;
  buildCounter(P, /*Atomic=*/false, 1, 2);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  CheckResult R = checkCandidate(M);
  ASSERT_FALSE(R.Ok);
  expectReplays(M, *R.Cex, "default config");
}

TEST(Checker, ThreeThreadInterleavingsCovered) {
  // x starts 0; threads set x to 1, 2, 3; epilogue asserts x != 0. Any
  // interleaving passes; with an assert x == 3 some fail.
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  for (int T = 0; T < 3; ++T) {
    unsigned Id = P.addThread("w");
    P.setRoot(BodyId::thread(Id),
              P.assign(P.locGlobal(X), P.constInt(T + 1)));
  }
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(3)), "last write wins"));
  CheckerConfig Cfg;
  Cfg.UseRandomFalsifier = false;
  CheckResult R = check(P, Cfg);
  EXPECT_FALSE(R.Ok); // some interleaving ends with x != 3
}

//===----------------------------------------------------------------------===//
// BFS search order.
//===----------------------------------------------------------------------===//

TEST(CheckerBfs, VerdictsMatchDfs) {
  for (bool Atomic : {false, true}) {
    Program PD, PB;
    buildCounter(PD, Atomic, 2, 4);
    buildCounter(PB, Atomic, 2, 4);
    CheckerConfig Dfs, Bfs;
    Dfs.UseRandomFalsifier = Bfs.UseRandomFalsifier = false;
    Bfs.Order = SearchOrder::Bfs;
    EXPECT_EQ(check(PD, Dfs).Ok, Atomic);
    EXPECT_EQ(check(PB, Bfs).Ok, Atomic);
  }
}

TEST(CheckerBfs, FindsDeadlockWithSet) {
  Program P;
  unsigned L0 = P.addGlobal("lock0", Type::Int, -1);
  unsigned L1 = P.addGlobal("lock1", Type::Int, -1);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("phil");
    unsigned First = T == 0 ? L0 : L1;
    unsigned Second = T == 0 ? L1 : L0;
    ExprRef Pid = P.constInt(T);
    P.setRoot(
        BodyId::thread(Id),
        P.seq({P.lock(P.locGlobal(First), P.global(First), Pid),
               P.lock(P.locGlobal(Second), P.global(Second), Pid),
               P.unlock(P.locGlobal(Second), P.global(Second), Pid, "s"),
               P.unlock(P.locGlobal(First), P.global(First), Pid, "f")}));
  }
  CheckerConfig Cfg;
  Cfg.UseRandomFalsifier = false;
  Cfg.Order = SearchOrder::Bfs;
  CheckResult R = check(P, Cfg);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::Deadlock);
  EXPECT_EQ(R.Cex->DeadlockSet.size(), 2u);
}

TEST(CheckerBfs, CounterexampleIsNoLongerThanDfs) {
  Program PD, PB;
  buildCounter(PD, /*Atomic=*/false, 2, 4);
  buildCounter(PB, /*Atomic=*/false, 2, 4);
  CheckerConfig Dfs, Bfs;
  Dfs.UseRandomFalsifier = Bfs.UseRandomFalsifier = false;
  Bfs.Order = SearchOrder::Bfs;
  CheckResult RD = check(PD, Dfs);
  CheckResult RB = check(PB, Bfs);
  ASSERT_FALSE(RD.Ok);
  ASSERT_FALSE(RB.Ok);
  EXPECT_LE(RB.Cex->Steps.size(), RD.Cex->Steps.size());
}

TEST(CheckerBfs, TraceReplaysOnTheMachine) {
  Program P;
  buildCounter(P, /*Atomic=*/false, 2, 4);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  CheckerConfig Cfg;
  Cfg.UseRandomFalsifier = false;
  Cfg.Order = SearchOrder::Bfs;
  CheckResult R = checkCandidate(M, Cfg);
  ASSERT_FALSE(R.Ok);
  expectReplays(M, *R.Cex, "bfs");
}
