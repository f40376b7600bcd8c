//===- tests/test_extensions.cpp - CAS, Treiber stack, autotuning ----------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Stack.h"
#include "benchmarks/Suite.h"
#include "benchmarks/Workload.h"
#include "cegis/Cegis.h"
#include "cegis/Enumerate.h"
#include "desugar/Flatten.h"
#include "verify/ModelChecker.h"

#include <gtest/gtest.h>

#include <limits>

using namespace psketch;
using namespace psketch::bench;
using namespace psketch::ir;

//===----------------------------------------------------------------------===//
// The CAS primitive (Section 4.1).
//===----------------------------------------------------------------------===//

TEST(Cas, SucceedsWhenExpectedValueMatches) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 5);
  unsigned T = P.addThread("t");
  unsigned Flag = P.addLocal(BodyId::thread(T), "ok", Type::Bool, 0);
  P.setRoot(BodyId::thread(T),
            P.casFlag(P.locGlobal(X), P.constInt(5), P.constInt(9),
                      P.locLocal(Flag)));
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  exec::State S = M.initialState();
  exec::Violation V;
  ASSERT_TRUE(M.runToCompletion(S, 0, V));
  EXPECT_EQ(S.global(M.globalOffset(X)), 9);
  EXPECT_EQ(S.local(0, Flag), 1);
}

TEST(Cas, FailsWhenValueChanged) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 7);
  unsigned T = P.addThread("t");
  unsigned Flag = P.addLocal(BodyId::thread(T), "ok", Type::Bool, 0);
  P.setRoot(BodyId::thread(T),
            P.casFlag(P.locGlobal(X), P.constInt(5), P.constInt(9),
                      P.locLocal(Flag)));
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  exec::State S = M.initialState();
  exec::Violation V;
  ASSERT_TRUE(M.runToCompletion(S, 0, V));
  EXPECT_EQ(S.global(M.globalOffset(X)), 7) << "store must not happen";
  EXPECT_EQ(S.local(0, Flag), 0);
}

TEST(Cas, IsAtomicUnderContention) {
  // Two CAS incrementers with retries never lose an update.
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("inc");
    BodyId B = BodyId::thread(Id);
    unsigned LT = P.addLocal(B, "t", Type::Int, 0);
    unsigned LOk = P.addLocal(B, "ok", Type::Bool, 0);
    ExprRef Tv = P.local(LT, Type::Int);
    ExprRef Ok = P.local(LOk, Type::Bool);
    P.setRoot(B, P.whileS(P.lnot(Ok),
                          P.seq({P.assign(P.locLocal(LT), P.global(X)),
                                 P.casFlag(P.locGlobal(X), Tv,
                                           P.add(Tv, P.constInt(1)),
                                           P.locLocal(LOk))}),
                          /*UnrollBound=*/3));
  }
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(2)), "no lost update"));
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  auto R = verify::checkCandidate(M);
  EXPECT_TRUE(R.Ok) << (R.Cex ? R.Cex->V.Label : "");
}

//===----------------------------------------------------------------------===//
// The Treiber stack benchmark.
//===----------------------------------------------------------------------===//

TEST(Stack, ReferencePassesAllWorkloads) {
  for (const char *Pattern : {"p(po|po)", "pp(o|o)", "(pp|oo)"}) {
    StackOptions O;
    auto P = buildStack(parseWorkload(Pattern), O);
    auto H = stackReferenceCandidate(*P, O);
    flat::FlatProgram FP = flat::flatten(*P);
    exec::Machine M(FP, H);
    auto R = verify::checkCandidate(M);
    EXPECT_TRUE(R.Ok) << Pattern << ": "
                      << (R.Cex ? R.Cex->V.Label : "");
  }
}

TEST(Stack, PublishBeforeLinkRejected) {
  // Swapping the link/publish order races: the node is published with a
  // stale (null) next, losing the rest of the stack.
  StackOptions O;
  auto P = buildStack(parseWorkload("p(po|po)"), O);
  HoleAssignment H = stackReferenceCandidate(*P, O);
  for (size_t I = 0; I < P->holes().size(); ++I) {
    if (P->holes()[I].Name == "push.ord.order[0]")
      H[I] = 1;
    if (P->holes()[I].Name == "push.ord.order[1]")
      H[I] = 0;
  }
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, H);
  auto R = verify::checkCandidate(M);
  EXPECT_FALSE(R.Ok);
}

TEST(Stack, WrongCasNewValueRejected) {
  StackOptions O;
  auto P = buildStack(parseWorkload("p(po|po)"), O);
  HoleAssignment H = stackReferenceCandidate(*P, O);
  for (size_t I = 0; I < P->holes().size(); ++I)
    if (P->holes()[I].Name == "push.casNew")
      H[I] = 1; // publish the old top again: the new node is lost
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, H);
  auto R = verify::checkCandidate(M);
  EXPECT_FALSE(R.Ok);
}

TEST(Stack, CegisSynthesizesTreiber) {
  auto P = buildStack(parseWorkload("p(po|po)"), StackOptions());
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 200;
  cegis::ConcurrentCegis C(*P, Cfg);
  auto R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  // Independently re-verify the synthesized candidate.
  auto P2 = buildStack(parseWorkload("p(po|po)"), StackOptions());
  flat::FlatProgram FP2 = flat::flatten(*P2);
  exec::Machine M(FP2, R.Candidate);
  EXPECT_TRUE(verify::checkCandidate(M).Ok);
}

//===----------------------------------------------------------------------===//
// Solution enumeration and autotuning (Section 8.3.1).
//===----------------------------------------------------------------------===//

TEST(Enumerate, FindsAllStackSolutions) {
  auto P = buildStack(parseWorkload("p(po|po)"), StackOptions());
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 2000;
  auto R = cegis::enumerateSolutions(*P, 100, Cfg);
  EXPECT_TRUE(R.Exhausted) << "the 432-candidate space is enumerable";
  EXPECT_GE(R.Solutions.size(), 1u);
  EXPECT_LE(R.Solutions.size(), 10u);
  // Every reported solution re-verifies.
  for (const auto &S : R.Solutions) {
    auto P2 = buildStack(parseWorkload("p(po|po)"), StackOptions());
    flat::FlatProgram FP2 = flat::flatten(*P2);
    exec::Machine M(FP2, S.Candidate);
    EXPECT_TRUE(verify::checkCandidate(M).Ok);
  }
}

TEST(Enumerate, SolutionsAreSortedByCost) {
  auto P = buildStack(parseWorkload("p(po|po)"), StackOptions());
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 2000;
  auto R = cegis::enumerateSolutions(*P, 100, Cfg);
  for (size_t I = 1; I < R.Solutions.size(); ++I)
    EXPECT_LE(R.Solutions[I - 1].Cost, R.Solutions[I].Cost);
}

TEST(Enumerate, UnresolvableSketchYieldsNoSolutions) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  P.addHole("h", 4);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(X), P.holeValue(0)));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(9)), "unreachable"));
  auto R = cegis::enumerateSolutions(P, 10);
  EXPECT_TRUE(R.Solutions.empty());
  EXPECT_TRUE(R.Exhausted);
}

// Enumeration runs the concurrent loop with its verify step, so up to the
// first solution it follows ConcurrentCegis under the same config: same
// candidate, verifier calls, states, learnt traces (gates and clauses)
// and per-solve search, under the default (warm-started) solver:
// enumeration opens its exclusion scope only at its first exclusion, so
// no activation variable or assumption enters the instance before then.
TEST(Enumerate, FirstSolutionFollowsConcurrentLoop) {
  cegis::CegisConfig Cfg;
  Cfg.Prescreen = false;
  Cfg.AbsInt = false;
  for (const char *Family : {"fineset1", "dinphilo"}) {
    SuiteEntry Row = paperSuite(Family).front();
    std::string Tag = Row.Sketch + " " + Row.Test;
    auto PC = Row.Build();
    cegis::CegisResult C = cegis::ConcurrentCegis(*PC, Cfg).run();
    auto PE = Row.Build();
    cegis::EnumerateResult E = cegis::enumerateSolutions(*PE, 1, Cfg);
    ASSERT_TRUE(C.Stats.Resolvable) << Tag;
    ASSERT_EQ(E.Solutions.size(), 1u) << Tag;
    EXPECT_GT(C.Stats.Iterations, 1u) << Tag << ": learns at least once";
    EXPECT_EQ(E.Solutions[0].Candidate, C.Candidate) << Tag;
    EXPECT_EQ(E.Stats.Iterations, C.Stats.Iterations) << Tag;
    EXPECT_EQ(E.Stats.StatesExplored, C.Stats.StatesExplored) << Tag;
    EXPECT_EQ(E.Stats.AmpleStates, C.Stats.AmpleStates) << Tag;
    EXPECT_EQ(E.Stats.GateCount, C.Stats.GateCount) << Tag;
    EXPECT_EQ(E.Stats.ClauseCount, C.Stats.ClauseCount) << Tag;
    ASSERT_EQ(E.Stats.SolveLog.size(), C.Stats.SolveLog.size()) << Tag;
    for (size_t I = 0; I < C.Stats.SolveLog.size(); ++I)
      EXPECT_EQ(E.Stats.SolveLog[I].Conflicts, C.Stats.SolveLog[I].Conflicts)
          << Tag << " solve " << I;
  }
}

TEST(Enumerate, MeasureCandidateCountsSteps) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.seq({P.assign(P.locGlobal(X), P.constInt(1)),
                   P.assign(P.locGlobal(X), P.constInt(2))}));
  flat::FlatProgram FP = flat::flatten(P);
  // Two steps, measured over the round-robin and three random schedules.
  EXPECT_EQ(cegis::measureCandidate(FP, {}), 4u * 2u);
}

TEST(Enumerate, MeasureDetectsFailure) {
  Program P;
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T), P.assertS(P.constBool(false), "boom"));
  flat::FlatProgram FP = flat::flatten(P);
  EXPECT_EQ(cegis::measureCandidate(FP, {}),
            std::numeric_limits<uint64_t>::max());
}

//===----------------------------------------------------------------------===//
// The Section 4.1 doubly-linked list (27 CAS fragments).
//===----------------------------------------------------------------------===//

#include "benchmarks/DList.h"

TEST(DList, ReferencePassesAllWorkloads) {
  for (const char *Pattern : {"i(i|i)", "(ii|i)", "(i|i)i"}) {
    DListOptions O;
    auto P = buildDList(parseWorkload(Pattern), O);
    auto H = dlistReferenceCandidate(*P, O);
    flat::FlatProgram FP = flat::flatten(*P);
    exec::Machine M(FP, H);
    auto R = verify::checkCandidate(M);
    EXPECT_TRUE(R.Ok) << Pattern << ": "
                      << (R.Cex ? R.Cex->V.Label : "");
  }
}

TEST(DList, HasTheTwentySevenCasFragments) {
  auto P = buildDList(parseWorkload("i(i|i)"), DListOptions());
  unsigned CasSpace = 1;
  for (const Hole &H : P->holes())
    if (H.Name == "ins.casLoc" || H.Name == "ins.casOld" ||
        H.Name == "ins.casNew")
      CasSpace *= H.NumChoices;
  EXPECT_EQ(CasSpace, 27u) << "the paper's 27 CAS fragments";
}

TEST(DList, MissingFixupRejected) {
  // Without the backward-pointer fixup, x.next.prev == x fails.
  DListOptions O;
  auto P = buildDList(parseWorkload("i(i|i)"), O);
  HoleAssignment H = dlistReferenceCandidate(*P, O);
  for (size_t I = 0; I < P->holes().size(); ++I)
    if (P->holes()[I].Name == "ins.fixGuard")
      H[I] = 2; // false
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, H);
  EXPECT_FALSE(verify::checkCandidate(M).Ok);
}

TEST(DList, WrongCasLocationRejected) {
  DListOptions O;
  auto P = buildDList(parseWorkload("i(i|i)"), O);
  HoleAssignment H = dlistReferenceCandidate(*P, O);
  for (size_t I = 0; I < P->holes().size(); ++I)
    if (P->holes()[I].Name == "ins.casLoc")
      H[I] = 1; // CAS on head.next instead of head
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, H);
  EXPECT_FALSE(verify::checkCandidate(M).Ok);
}

TEST(DList, CegisSynthesizesInsert) {
  auto P = buildDList(parseWorkload("i(i|i)"), DListOptions());
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 300;
  cegis::ConcurrentCegis C(*P, Cfg);
  auto R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  auto P2 = buildDList(parseWorkload("i(i|i)"), DListOptions());
  flat::FlatProgram FP2 = flat::flatten(*P2);
  exec::Machine M(FP2, R.Candidate);
  EXPECT_TRUE(verify::checkCandidate(M).Ok);
}

//===----------------------------------------------------------------------===//
// The "full version of the lazy list-based set" (sketched add + remove).
//===----------------------------------------------------------------------===//

#include "benchmarks/LazySet.h"

TEST(LazySetFull, SplitWorkloadResolves) {
  LazySetOptions O;
  O.SketchAdd = true;
  auto P = buildLazySet(parseWorkload("ar(aa|rr)"), O);
  EXPECT_GT(P->candidateSpaceSize().log10(), 5.0);
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 500;
  Cfg.TimeLimitSeconds = 120;
  cegis::ConcurrentCegis C(*P, Cfg);
  auto R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  // The synthesized add must actually hold both hands: re-verify.
  LazySetOptions O2;
  O2.SketchAdd = true;
  auto P2 = buildLazySet(parseWorkload("ar(aa|rr)"), O2);
  flat::FlatProgram FP2 = flat::flatten(*P2);
  exec::Machine M(FP2, R.Candidate);
  EXPECT_TRUE(verify::checkCandidate(M).Ok);
}

TEST(LazySetFull, MixedWorkloadStillUnresolvable) {
  LazySetOptions O;
  O.SketchAdd = true;
  auto P = buildLazySet(parseWorkload("ar(ar|ar)"), O);
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 500;
  Cfg.TimeLimitSeconds = 120;
  cegis::ConcurrentCegis C(*P, Cfg);
  auto R = C.run();
  EXPECT_FALSE(R.Stats.Resolvable)
      << "even with add() sketched, one lock in remove() cannot work";
  EXPECT_FALSE(R.Stats.Aborted);
}
