//===- tests/test_absint.cpp - interval + lockset analysis tests ----------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The guarantees under test (docs/ANALYSIS.md):
//  * the Interval lattice behaves (join, bottom, definite truth);
//  * every interval refutation agrees with the concrete model checker —
//    a refuted candidate fails verification on some schedule (the other
//    clause of the Analyzer.h soundness contract, complementing the
//    equivalence-ban test in test_analysis.cpp);
//  * the proven ValueBounds cover every concretely reachable value of
//    the parallel phase, across randomized sketches and schedules;
//  * the dead-assert fixture is flagged by the interval pass and only
//    by it (the assert reads state, so the syntactic lint cannot);
//  * the lockset discipline: disciplined lock/unlock qualifies with the
//    right free value and must-entry masks, inconsistent protection is
//    an Eraser-style race, releases without provable ownership and
//    policy-guarded acquires (dining philosophers) refuse the cell;
//  * the Machine tunings preserve behavior: packed-key runs agree with
//    untuned runs, deliberately-wrong bounds trip the
//    escape hatch instead of corrupting the verdict, and lock-protected
//    footprints never declare a co-enabled pair commuting whose two
//    execution orders disagree;
//  * Footprint edge cases: choice-resolved array indices conflict per
//    candidate, and allocation steps conflict on the shared counter;
//  * CEGIS integration: --absint on/off verdict agreement and the audit
//    mode's zero-false-prunes gate.
//
//===----------------------------------------------------------------------===//

#include "analysis/AbsInt.h"
#include "analysis/Analyzer.h"
#include "analysis/Lockset.h"
#include "benchmarks/Suite.h"
#include "cegis/Cegis.h"
#include "desugar/Flatten.h"
#include "frontend/Parser.h"
#include "support/Rng.h"
#include "verify/ModelChecker.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace psketch;
using namespace psketch::analysis;
using namespace psketch::ir;

namespace {

/// Enumerates every hole assignment of a small candidate space.
std::vector<HoleAssignment> allCandidates(const Program &P) {
  std::vector<HoleAssignment> Out;
  HoleAssignment A(P.holes().size(), 0);
  uint64_t Total = 1;
  for (const Hole &H : P.holes())
    Total *= H.NumChoices;
  if (Total > 256)
    return Out; // caller asserts non-empty; keep spaces tiny
  for (uint64_t N = 0; N < Total; ++N) {
    uint64_t Rest = N;
    for (size_t H = 0; H < A.size(); ++H) {
      A[H] = Rest % P.holes()[H].NumChoices;
      Rest /= P.holes()[H].NumChoices;
    }
    Out.push_back(A);
  }
  return Out;
}

/// A small random two-thread sketch: constant and generator stores into
/// two globals, and an epilogue assert whose truth depends on the holes
/// — some candidates are interval-refutable, some pass.
std::unique_ptr<Program> buildRandomSketch(uint64_t Seed) {
  Rng R(Seed);
  auto P = std::make_unique<Program>();
  unsigned X = P->addGlobal("x", Type::Int, 0);
  unsigned Y = P->addGlobal("y", Type::Int, 0);
  for (unsigned T = 0; T < 2; ++T) {
    unsigned Id = P->addThread("t");
    BodyId B = BodyId::thread(Id);
    std::vector<StmtRef> Stmts;
    unsigned NumStmts = 1 + static_cast<unsigned>(R.below(3));
    for (unsigned S = 0; S < NumStmts; ++S) {
      unsigned Target = R.below(2) ? X : Y;
      if (R.below(2) == 0)
        Stmts.push_back(P->assign(
            P->locGlobal(Target),
            P->constInt(static_cast<int64_t>(R.below(4)))));
      else
        Stmts.push_back(P->assign(
            P->locGlobal(Target),
            P->choose("g",
                      {P->constInt(static_cast<int64_t>(R.below(4))),
                       P->constInt(static_cast<int64_t>(R.below(4))),
                       P->constInt(static_cast<int64_t>(2 + R.below(4)))})));
    }
    P->setRoot(B, P->seq(std::move(Stmts)));
  }
  // An assert that some candidates satisfy and others provably cannot.
  unsigned Which = R.below(2) ? X : Y;
  int64_t K = static_cast<int64_t>(R.below(6));
  ExprRef Cond = R.below(2) ? P->le(P->global(Which), P->constInt(K))
                            : P->eq(P->global(Which), P->constInt(K));
  P->setRoot(BodyId::epilogue(), P->assertS(Cond, "post"));
  return P;
}

/// One deterministic refutable/resolvable pair: x := {3 | 5}, then
/// assert x == 5. Candidate 0 stores 3 (x ∈ [0,3]: refuted), candidate
/// 1 stores 5 (passes).
std::unique_ptr<Program> buildPickFive() {
  auto P = std::make_unique<Program>();
  unsigned X = P->addGlobal("x", Type::Int, 0);
  unsigned T = P->addThread("t");
  P->setRoot(BodyId::thread(T),
             P->assign(P->locGlobal(X),
                       P->choose("v", {P->constInt(3), P->constInt(5)})));
  P->setRoot(BodyId::epilogue(),
             P->assertS(P->eq(P->global(X), P->constInt(5)), "is five"));
  return P;
}

/// Two threads incrementing x under a scalar lock (owner cell, free =
/// -1), then an epilogue assert. \p Thread1Locks drops the lock in
/// thread 1 when false — the Eraser race shape.
std::unique_ptr<Program> buildLockedCounter(bool Thread1Locks = true) {
  auto P = std::make_unique<Program>();
  unsigned LK = P->addGlobal("lk", Type::Int, -1);
  unsigned X = P->addGlobal("x", Type::Int, 0);
  for (unsigned T = 0; T < 2; ++T) {
    unsigned Id = P->addThread("t");
    BodyId B = BodyId::thread(Id);
    StmtRef Incr =
        P->assign(P->locGlobal(X), P->add(P->global(X), P->constInt(1)));
    if (T == 1 && !Thread1Locks) {
      P->setRoot(B, Incr);
      continue;
    }
    P->setRoot(
        B, P->seq({P->lock(P->locGlobal(LK), P->global(LK),
                           P->constInt(static_cast<int64_t>(T))),
                   Incr,
                   P->unlock(P->locGlobal(LK), P->global(LK),
                             P->constInt(static_cast<int64_t>(T)), "owner")}));
  }
  P->setRoot(BodyId::epilogue(),
             P->assertS(P->le(P->global(X), P->constInt(2)), "bounded"));
  return P;
}

bool runFullProgramOrder(exec::Machine &M) {
  exec::State S = M.initialState();
  exec::Violation V;
  bool Ok = M.runToCompletion(S, M.prologueCtx(), V);
  for (unsigned T = 0; Ok && T < M.numThreads(); ++T)
    Ok = M.runToCompletion(S, T, V);
  if (Ok)
    Ok = M.runToCompletion(S, M.epilogueCtx(), V);
  return Ok;
}

bool hasDiag(const std::vector<Diagnostic> &Diags, const std::string &Pass,
             const std::string &Needle) {
  for (const Diagnostic &D : Diags)
    if (D.Pass == Pass && D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Interval lattice.
//===----------------------------------------------------------------------===//

TEST(Interval, LatticeBasics) {
  Interval Bot = Interval::bottom();
  EXPECT_TRUE(Bot.isBottom());
  EXPECT_FALSE(Bot.contains(0));

  Interval P = Interval::point(3);
  EXPECT_TRUE(P.isPoint());
  EXPECT_TRUE(P.contains(3));
  EXPECT_FALSE(P.contains(2));
  EXPECT_TRUE(P.definitelyTrue());

  Interval Z = Interval::point(0);
  EXPECT_TRUE(Z.definitelyFalse());
  EXPECT_FALSE(Z.definitelyTrue());

  Interval R = Interval::of(-2, 5);
  EXPECT_FALSE(R.definitelyTrue()); // contains 0
  EXPECT_FALSE(R.definitelyFalse());

  EXPECT_EQ(Bot.join(P), P);
  EXPECT_EQ(P.join(Bot), P);
  EXPECT_EQ(P.join(R), Interval::of(-2, 5));
  EXPECT_EQ(Interval::point(1).join(Interval::point(4)), Interval::of(1, 4));
}

//===----------------------------------------------------------------------===//
// Refutation agreement with the concrete checker (the other clause of
// the Analyzer.h soundness contract).
//===----------------------------------------------------------------------===//

TEST(AbsInt, DeterministicRefutationAndPass) {
  auto P = buildPickFive();
  flat::FlatProgram FP = flat::flatten(*P);

  CandidateFacts Three = analyzeCandidate(*P, FP, HoleAssignment{0});
  EXPECT_TRUE(Three.Refuted);
  EXPECT_FALSE(Three.RefutedWhere.empty());

  CandidateFacts Five = analyzeCandidate(*P, FP, HoleAssignment{1});
  EXPECT_FALSE(Five.Refuted);

  exec::Machine MThree(FP, HoleAssignment{0});
  EXPECT_FALSE(runFullProgramOrder(MThree));
  exec::Machine MFive(FP, HoleAssignment{1});
  EXPECT_TRUE(runFullProgramOrder(MFive));
}

TEST(AbsInt, RefutedCandidatesFailConcretelyOnRandomSketches) {
  unsigned Refuted = 0, Checked = 0;
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    auto P = buildRandomSketch(Seed);
    flat::FlatProgram FP = flat::flatten(*P);
    for (const HoleAssignment &C : allCandidates(*P)) {
      ++Checked;
      CandidateFacts F = analyzeCandidate(*P, FP, C);
      if (!F.Refuted)
        continue;
      ++Refuted;
      exec::Machine M(FP, C);
      verify::CheckerConfig Cfg;
      Cfg.Por = verify::PorMode::Off;
      verify::CheckResult R = verify::checkCandidate(M, Cfg);
      EXPECT_FALSE(R.Ok) << "seed " << Seed
                         << ": interval refutation contradicted by the "
                            "concrete checker (false prune)";
    }
  }
  // Non-vacuity: the generator must actually exercise the refuter.
  EXPECT_GT(Checked, 0u);
  EXPECT_GT(Refuted, 0u);
}

TEST(AbsInt, BoundsCoverConcreteParallelPhaseValues) {
  Rng R(0xB07D5ull);
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    auto P = buildRandomSketch(Seed);
    flat::FlatProgram FP = flat::flatten(*P);
    for (const HoleAssignment &C : allCandidates(*P)) {
      CandidateFacts F = analyzeCandidate(*P, FP, C);
      ASSERT_FALSE(F.Bounds.empty());
      exec::Machine M(FP, C);
      for (int Schedule = 0; Schedule < 4; ++Schedule) {
        exec::State S = M.initialState();
        exec::Violation V;
        if (!M.runToCompletion(S, M.prologueCtx(), V))
          break;
        for (int Step = 0; Step < 64; ++Step) {
          unsigned Ctx = static_cast<unsigned>(R.below(M.numThreads()));
          exec::ExecOutcome Out = M.execStep(S, Ctx, V);
          if (Out.Result == exec::StepResult::Violated)
            break;
          for (unsigned G = 0; G < M.globalSlots(); ++G) {
            const exec::ValueBounds::Range &Range = F.Bounds.GlobalSlots[G];
            int64_t Val = S.global(G);
            EXPECT_TRUE(Range.Lo <= Val && Val <= Range.Hi)
                << "seed " << Seed << " slot " << G << ": concrete " << Val
                << " outside proven [" << Range.Lo << ", " << Range.Hi
                << "]";
          }
        }
      }
    }
  }
}

TEST(AbsInt, WholeSpaceRefutationProvesUnresolvable) {
  // Every alternative writes <= 4, the assert demands 9: no candidate
  // can pass, and the whole-space abstract run proves it statically.
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(X),
                     P.choose("v", {P.constInt(2), P.constInt(4)})));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(9)), "nine"));
  flat::FlatProgram FP = flat::flatten(P);

  AbsIntResult Whole = runAbsInt(P, FP, nullptr);
  EXPECT_TRUE(Whole.Refuted);

  AnalysisResult A = analyze(P, FP);
  EXPECT_TRUE(A.ProvedUnresolvable);
}

//===----------------------------------------------------------------------===//
// The dead-assert fixture: interval-dead, syntactically invisible.
//===----------------------------------------------------------------------===//

TEST(Fixture, DeadAssertIsFlaggedByIntervalsOnly) {
  std::ifstream File(std::string(PSKETCH_TEST_DIR) +
                     "/fixtures/dead_assert.psk");
  ASSERT_TRUE(File.good()) << "fixture missing";
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  frontend::ParseResult Parsed = frontend::parseProgram(Buffer.str());
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  Program &P = *Parsed.Program;
  flat::FlatProgram FP = flat::flatten(P);

  EXPECT_FALSE(analyze(P, FP).ProvedUnresolvable);
  std::vector<Diagnostic> Diags = lint(P, FP);
  EXPECT_TRUE(hasDiag(Diags, "absint", "flag stays boolean"))
      << "interval-dead assert not flagged";
  // The control assert (done == 1 is falsifiable: done ∈ [0,1]) and the
  // syntactic lint must both stay quiet about dead asserts here.
  EXPECT_FALSE(hasDiag(Diags, "absint", "some thread finished"));
  EXPECT_FALSE(hasDiag(Diags, "lint", "flag stays boolean"));

  // And the analysis claim is concretely true: no candidate fires it.
  for (const HoleAssignment &C : allCandidates(P)) {
    exec::Machine M(FP, C);
    EXPECT_TRUE(runFullProgramOrder(M));
  }
}

TEST(Fixture, LoopBoundChecksAreNeverDeadAsserts) {
  // b reaches 2 within the unroll bound, so the flattener's while-bound
  // check is abstractly always true: that says only that the bound
  // suffices, and no author wrote it. The author's own always-true
  // assert beside it is still a finding.
  frontend::ParseResult Parsed = frontend::parseProgram(R"(
global int flag;

fork (i, 2) {
  var int b;
  while (b < 2) bound 2 {
    b = b + 1;
  }
  flag = {| 0 | 1 |};
}

epilogue {
  assert flag <= 1 : "flag stays boolean";
}
)");
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  Program &P = *Parsed.Program;
  flat::FlatProgram FP = flat::flatten(P);

  std::vector<Diagnostic> Diags = lint(P, FP);
  EXPECT_FALSE(hasDiag(Diags, "absint", "loop bound exceeded"));
  EXPECT_TRUE(hasDiag(Diags, "absint", "flag stays boolean"));
}

//===----------------------------------------------------------------------===//
// Lockset discipline.
//===----------------------------------------------------------------------===//

TEST(Lockset, DisciplinedLockQualifiesWithMustEntry) {
  auto P = buildLockedCounter();
  flat::FlatProgram FP = flat::flatten(*P);
  LocksetResult L = runLockset(*P, FP, nullptr);

  ASSERT_EQ(L.Locks.LockSlots.size(), 1u);
  EXPECT_EQ(L.Locks.FreeValues[0], -1);
  EXPECT_TRUE(L.Races.empty());
  ASSERT_EQ(L.Locks.MustEntry.size(), 2u);
  for (unsigned T = 0; T < 2; ++T) {
    // pc 0 is the acquire: nothing held at entry. The increment and the
    // release both provably hold the lock.
    EXPECT_EQ(L.Locks.MustEntry[T][0], 0u) << "thread " << T;
    EXPECT_EQ(L.Locks.MustEntry[T][1], 1u) << "thread " << T;
    EXPECT_EQ(L.Locks.MustEntry[T][2], 1u) << "thread " << T;
  }
}

TEST(Lockset, InconsistentProtectionIsARace) {
  auto P = buildLockedCounter(/*Thread1Locks=*/false);
  flat::FlatProgram FP = flat::flatten(*P);
  LocksetResult L = runLockset(*P, FP, nullptr);

  // The lock cell still qualifies (thread 1 never touches it), but the
  // counter is accessed with an empty common lockset.
  ASSERT_EQ(L.Locks.LockSlots.size(), 1u);
  ASSERT_EQ(L.Races.size(), 1u);
  EXPECT_EQ(L.Races[0].SlotName, "x");
}

TEST(Lockset, ReleaseWithoutOwnershipRefusesCell) {
  Program P;
  unsigned LK = P.addGlobal("lk", Type::Int, -1);
  P.addGlobal("x", Type::Int, 0);
  // Thread 0 is disciplined, so lk looks like a lock cell; thread 1
  // stores the free value without ever acquiring. The must-held scan
  // must refuse the cell, not treat the bare store as a release.
  unsigned T0 = P.addThread("t");
  P.setRoot(BodyId::thread(T0),
            P.seq({P.lock(P.locGlobal(LK), P.global(LK), P.constInt(0)),
                   P.unlock(P.locGlobal(LK), P.global(LK), P.constInt(0),
                            "owner")}));
  unsigned T1 = P.addThread("t");
  P.setRoot(BodyId::thread(T1),
            P.assign(P.locGlobal(LK), P.constInt(-1)));
  P.setRoot(BodyId::epilogue(), P.nop());
  flat::FlatProgram FP = flat::flatten(P);
  LocksetResult L = runLockset(P, FP, nullptr);
  EXPECT_TRUE(L.Locks.empty());
  ASSERT_FALSE(L.Refusals.empty());
  EXPECT_NE(L.Refusals[0].find("ownership"), std::string::npos)
      << L.Refusals[0];
}

TEST(Lockset, DiningPhilosophersPolicyGuardedAcquiresAreRefused) {
  // The dining sketch takes its forks under policy DynGuards, so
  // ownership is never provable: the analysis must refuse the fork
  // cells (returning no annotations) rather than guess.
  auto Entries = bench::paperSuite("dinphilo");
  ASSERT_FALSE(Entries.empty());
  auto P = Entries.front().Build();
  flat::FlatProgram FP = flat::flatten(*P);
  LocksetResult L = runLockset(*P, FP, nullptr);
  EXPECT_TRUE(L.Locks.empty());
  EXPECT_FALSE(L.Refusals.empty());
}

//===----------------------------------------------------------------------===//
// Machine tunings: packed visited keys and the protectedBy channel.
//===----------------------------------------------------------------------===//

TEST(Packed, TunedAgreesWithUntuned) {
  auto P = buildLockedCounter();
  flat::FlatProgram FP = flat::flatten(*P);
  HoleAssignment C(P->holes().size(), 0);
  CandidateFacts F = analyzeCandidate(*P, FP, C);
  ASSERT_FALSE(F.Refuted);

  exec::MachineTuning Tuning;
  Tuning.Bounds = &F.Bounds;
  exec::Machine Tuned(FP, C, Tuning);
  EXPECT_TRUE(Tuned.packedLayout().Enabled);
  EXPECT_GT(Tuned.tightenedBits(), 0u);

  exec::Machine Plain(FP, C);
  for (verify::PorMode Por :
       {verify::PorMode::Off, verify::PorMode::Ample}) {
    verify::CheckerConfig Cfg;
    Cfg.Por = Por;
    verify::CheckResult A = verify::checkCandidate(Plain, Cfg);
    verify::CheckResult B = verify::checkCandidate(Tuned, Cfg);
    EXPECT_EQ(A.Ok, B.Ok);
    EXPECT_EQ(A.StatesExplored, B.StatesExplored);
  }
  EXPECT_EQ(Tuned.packEscapes(), 0u) << "sound bounds must never escape";
}

TEST(Packed, WrongBoundsTripTheEscapeHatchNotTheVerdict) {
  auto P = buildLockedCounter();
  flat::FlatProgram FP = flat::flatten(*P);
  HoleAssignment C(P->holes().size(), 0);

  // Deliberately absurd bounds: claim every global slot is constant 0.
  // The lock cell starts at -1 and x reaches 2, so encoding must hit
  // the out-of-range escape on the very first state — and the verdict
  // must be exactly the untuned one (the hatch costs memory, never
  // soundness).
  exec::ValueBounds Lies;
  exec::Machine Probe(FP, C);
  for (unsigned G = 0; G < Probe.globalSlots(); ++G)
    Lies.GlobalSlots.push_back({0, 0});
  exec::State Shape = Probe.initialState();
  Lies.Locals.resize(Probe.numContexts());
  for (unsigned Ctx = 0; Ctx < Probe.numContexts(); ++Ctx)
    Lies.Locals[Ctx].resize(Shape.numLocals(Ctx), {0, 0});

  exec::MachineTuning Tuning;
  Tuning.Bounds = &Lies;
  exec::Machine Tuned(FP, C, Tuning);
  ASSERT_TRUE(Tuned.packedLayout().Enabled);
  verify::CheckerConfig Cfg;
  verify::CheckResult A = verify::checkCandidate(Probe, Cfg);
  verify::CheckResult B = verify::checkCandidate(Tuned, Cfg);
  EXPECT_EQ(A.Ok, B.Ok);
  EXPECT_EQ(A.StatesExplored, B.StatesExplored);
  EXPECT_GT(Tuned.packEscapes(), 0u);
}

TEST(Footprint, ChoiceResolvedIndexConflictsPerCandidate) {
  Program P;
  unsigned A = P.addGlobalArray("a", Type::Int, 3);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("t");
    ExprRef Index =
        T == 0 ? P.choose("i", {P.constInt(0), P.constInt(1)})
               : P.constInt(1);
    P.setRoot(BodyId::thread(Id),
              P.assign(P.locGlobalAt(A, Index), P.constInt(7)));
  }
  P.setRoot(BodyId::epilogue(), P.nop());
  flat::FlatProgram FP = flat::flatten(P);

  exec::Machine Zero(FP, HoleAssignment{0});
  EXPECT_TRUE(Zero.commutes(0, 0, 1, 0)) << "a[0] vs a[1]: disjoint";
  exec::Machine One(FP, HoleAssignment{1});
  EXPECT_FALSE(One.commutes(0, 0, 1, 0)) << "a[1] vs a[1]: conflict";
}

TEST(Footprint, AllocStepsConflictOnTheSharedCounter) {
  Program P;
  P.addField("next", Type::Ptr);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("t");
    BodyId B = BodyId::thread(Id);
    unsigned Tmp = P.addLocal(B, "tmp", Type::Ptr, 0);
    P.setRoot(B, P.alloc(P.locLocal(Tmp)));
  }
  P.setRoot(BodyId::epilogue(), P.nop());
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  EXPECT_FALSE(M.commutes(0, 0, 1, 0))
      << "two allocations race on the bump counter";
}

TEST(Footprint, LockProtectionLicensesCriticalSectionCommutes) {
  auto P = buildLockedCounter();
  flat::FlatProgram FP = flat::flatten(*P);
  HoleAssignment C(P->holes().size(), 0);
  LocksetResult L = runLockset(*P, FP, nullptr);
  ASSERT_FALSE(L.Locks.empty());

  exec::Machine Plain(FP, C);
  EXPECT_FALSE(Plain.commutes(0, 1, 1, 1)) << "raw x-x conflict";

  exec::MachineTuning Tuning;
  Tuning.Locks = &L.Locks;
  exec::Machine Tuned(FP, C, Tuning);
  EXPECT_GT(Tuned.lockIndepPairs(), 0u);
  // Both increments hold the lock: never co-enabled, so independent.
  EXPECT_TRUE(Tuned.commutes(0, 1, 1, 1));
  // The two acquires are not protected at entry and still conflict.
  EXPECT_FALSE(Tuned.commutes(0, 0, 1, 0));
}

TEST(Footprint, CoEnabledCommutingPairsAgreeInBothOrders) {
  // The protectedBy channel claims: commuting steps that are co-enabled
  // produce the same state in either order. Exercise it concretely on
  // randomized reachable states of the locked counter (where the claim
  // is only sound BECAUSE protected pairs are never co-enabled) and on
  // random sketches with no locks.
  Rng R(0xC03FAull);
  unsigned PairsChecked = 0;
  for (int Which = 0; Which < 4; ++Which) {
    std::unique_ptr<Program> P =
        Which == 0 ? buildLockedCounter()
                   : buildRandomSketch(static_cast<uint64_t>(Which) + 40);
    flat::FlatProgram FP = flat::flatten(*P);
    HoleAssignment C(P->holes().size(), 0);
    exec::MachineTuning Tuning;
    LocksetResult L = runLockset(*P, FP, nullptr);
    if (!L.Locks.empty())
      Tuning.Locks = &L.Locks;
    exec::Machine M(FP, C, Tuning);

    for (int Schedule = 0; Schedule < 8; ++Schedule) {
      exec::State S = M.initialState();
      exec::Violation V;
      if (!M.runToCompletion(S, M.prologueCtx(), V))
        break;
      for (int Step = 0; Step < 32; ++Step) {
        // Probe every thread pair at the current state.
        for (unsigned T0 = 0; T0 < M.numThreads(); ++T0)
          for (unsigned T1 = T0 + 1; T1 < M.numThreads(); ++T1) {
            exec::State Probe = S;
            exec::ExecOutcome O0 = M.execStep(Probe, T0, V);
            if (O0.Result != exec::StepResult::Ok)
              continue;
            exec::State Probe2 = S;
            exec::ExecOutcome O1 = M.execStep(Probe2, T1, V);
            if (O1.Result != exec::StepResult::Ok)
              continue;
            if (!M.commutes(T0, O0.ExecutedPc, T1, O1.ExecutedPc))
              continue;
            // Both enabled and declared commuting: orders must agree.
            exec::State AB = S, BA = S;
            if (M.execStep(AB, T0, V).Result != exec::StepResult::Ok ||
                M.execStep(AB, T1, V).Result != exec::StepResult::Ok ||
                M.execStep(BA, T1, V).Result != exec::StepResult::Ok ||
                M.execStep(BA, T0, V).Result != exec::StepResult::Ok)
              continue;
            EXPECT_TRUE(AB == BA)
                << "workload " << Which << " pcs " << O0.ExecutedPc << "/"
                << O1.ExecutedPc << ": declared-commuting pair disagrees";
            ++PairsChecked;
          }
        // Advance along a random enabled context.
        unsigned Ctx = static_cast<unsigned>(R.below(M.numThreads()));
        if (M.execStep(S, Ctx, V).Result == exec::StepResult::Violated)
          break;
      }
    }
  }
  // The locked counter contributes no pair (protected steps are never
  // co-enabled — which is the point); the lock-free sketches must.
  EXPECT_GT(PairsChecked, 0u);
}

//===----------------------------------------------------------------------===//
// CEGIS integration: verdict agreement and the audit gate.
//===----------------------------------------------------------------------===//

TEST(Cegis, AbsIntOnOffAgreeOnSuiteVerdicts) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    auto POn = buildRandomSketch(Seed);
    auto POff = buildRandomSketch(Seed);
    cegis::CegisConfig On;
    On.MaxIterations = 200;
    cegis::CegisConfig Off = On;
    Off.AbsInt = false;
    Off.Analysis.AbsInt = false;

    cegis::ConcurrentCegis COn(*POn, On);
    cegis::CegisResult ROn = COn.run();
    cegis::ConcurrentCegis COff(*POff, Off);
    cegis::CegisResult ROff = COff.run();

    ASSERT_FALSE(ROn.Stats.Aborted) << "seed " << Seed;
    ASSERT_FALSE(ROff.Stats.Aborted) << "seed " << Seed;
    EXPECT_EQ(ROn.Stats.Resolvable, ROff.Stats.Resolvable)
        << "absint changed the verdict for seed " << Seed;
    EXPECT_EQ(ROn.Stats.AbsIntFalsePrunes, 0u);
    if (ROn.Stats.Resolvable) {
      // The resolved candidate must pass concretely.
      auto PCheck = buildRandomSketch(Seed);
      flat::FlatProgram FP = flat::flatten(*PCheck);
      exec::Machine M(FP, ROn.Candidate);
      EXPECT_TRUE(runFullProgramOrder(M)) << "seed " << Seed;
    }
  }
}

TEST(Cegis, AuditModeConfirmsZeroFalsePrunes) {
  // The per-candidate screen refutes x := 3 when the solver proposes it
  // (the pre-pass bans nothing here), the audit re-checks that refutation
  // concretely, and the run resolves to x := 5.
  {
    auto P = buildPickFive();
    cegis::CegisConfig Cfg;
    Cfg.AbsIntAudit = true;
    cegis::ConcurrentCegis C(*P, Cfg);
    cegis::CegisResult R = C.run();
    EXPECT_TRUE(R.Stats.Resolvable);
    EXPECT_GE(R.Stats.IntervalPrunes, 1u) << "x := 3 must reach the screen";
    EXPECT_EQ(R.Stats.AbsIntFalsePrunes, 0u);
    ASSERT_EQ(R.Candidate.size(), 1u);
    EXPECT_EQ(R.Candidate[0], 1u) << "only x := 5 satisfies the assert";
  }

  // With the prescreen off and an unsatisfiable assert, every proposed
  // candidate reaches the per-candidate screen, is refuted, and the
  // audit must confirm each refutation against the concrete checker.
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(X),
                     P.choose("v", {P.constInt(3), P.constInt(5)})));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(9)), "nine"));
  cegis::CegisConfig Cfg;
  Cfg.Prescreen = false;
  Cfg.AbsIntAudit = true;
  cegis::ConcurrentCegis C(P, Cfg);
  cegis::CegisResult R = C.run();
  EXPECT_FALSE(R.Stats.Resolvable);
  EXPECT_GE(R.Stats.IntervalPrunes, 1u) << "every candidate is refutable";
  EXPECT_EQ(R.Stats.AbsIntFalsePrunes, 0u);
}

TEST(Cegis, StatsSurfaceTuningCounters) {
  auto P = buildLockedCounter();
  cegis::CegisConfig Cfg;
  cegis::ConcurrentCegis C(*P, Cfg);
  cegis::CegisResult R = C.run();
  EXPECT_TRUE(R.Stats.Resolvable);
  EXPECT_GT(R.Stats.TightenedBits, 0u);
  EXPECT_GT(R.Stats.LockIndepPairs, 0u);
  EXPECT_EQ(R.Stats.PackEscapes, 0u);
}
