//===- tests/test_symmetry.cpp - symmetry inference + canonicalization -----===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The reduction guarantees under test (docs/SYMMETRY.md):
//  * the static inference proves the expected groups: the barrier's ring
//    rotations (one orbit), and nothing for the asymmetric dining
//    reference;
//  * soundness: randomized programs that observe the thread id
//    asymmetrically — in an assert, mixed into a non-folding expression,
//    or leaked through a global the epilogue pins — are refused;
//  * accepted permutations really are automorphisms: stepping sigma and
//    pi(sigma) from the initial state stays related by pi, step for step;
//  * canon(apply(pi, s)) == canon(s) for every accepted pi over states
//    sampled from real runs (the canonicalizer is constant on orbits);
//  * SymmetryMode::Orbit explores fewer states on a symmetric workload
//    (its verdict and counterexample agreement with Off is
//    tests/test_oracle.cpp's);
//  * the near-symmetry lint flags thread pairs one literal away from an
//    orbit.
//
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

#include "analysis/Analyzer.h"
#include "analysis/SymmetryInfer.h"
#include "benchmarks/Barrier.h"
#include "benchmarks/Dining.h"
#include "desugar/Flatten.h"
#include "support/Rng.h"
#include "verify/Canon.h"
#include "verify/ModelChecker.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace psketch;
using namespace psketch::ir;
using namespace psketch::verify;
using psketch::test::lightestRow;

namespace {

/// N threads each running `g = g + 1`, an epilogue asserting the sum —
/// fully symmetric under Sym(N). \p Asymmetry injects one of three
/// tid-observing defects (0 = none).
std::unique_ptr<Program> buildCounter(unsigned N, unsigned Asymmetry) {
  auto P = std::make_unique<Program>();
  unsigned G = P->addGlobal("g", Type::Int, 0);
  unsigned G2 = Asymmetry ? P->addGlobal("g2", Type::Int, 0) : 0;
  for (unsigned T = 0; T < N; ++T) {
    unsigned Id = P->addThread("t");
    std::vector<StmtRef> Body;
    Body.push_back(P->assign(P->locGlobal(G),
                             P->add(P->global(G), P->constInt(1))));
    switch (Asymmetry) {
    case 1: // assert over a tid constant: folds differently per thread
      Body.push_back(P->assertS(
          P->eq(P->constInt(static_cast<int64_t>(T)), P->constInt(0)),
          "tid"));
      break;
    case 2: // tid mixed into a non-folding expression (g2 = g + T)
      Body.push_back(P->assign(
          P->locGlobal(G2),
          P->add(P->global(G), P->constInt(static_cast<int64_t>(T)))));
      break;
    case 3: // tid leaked through a global the epilogue pins (g2 = T + 5)
    case 4: // same leak, but observed outside an ==/!= discipline
      Body.push_back(P->assign(
          P->locGlobal(G2), P->constInt(static_cast<int64_t>(T) + 5)));
      break;
    default:
      break;
    }
    P->setRoot(BodyId::thread(Id), P->seq(Body));
  }
  std::vector<StmtRef> Epi;
  Epi.push_back(P->assertS(
      P->eq(P->global(G), P->constInt(static_cast<int64_t>(N))), "sum"));
  if (Asymmetry == 3)
    Epi.push_back(
        P->assertS(P->eq(P->global(G2), P->constInt(5)), "pin"));
  if (Asymmetry == 4)
    Epi.push_back(
        P->assertS(P->lt(P->global(G2), P->constInt(6)), "bound"));
  P->setRoot(BodyId::epilogue(), P->seq(Epi));
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Inference unit tests.
//===----------------------------------------------------------------------===//

TEST(SymmetryInfer, BarrierRingProvesOneOrbitOfRotations) {
  bench::BarrierOptions O;
  O.Threads = 3;
  auto P = bench::buildBarrier(O);
  flat::FlatProgram FP = flat::flatten(*P);
  analysis::SymmetryPlan Plan = analysis::inferSymmetry(
      *P, FP, bench::barrierReferenceCandidate(*P, O));
  // The neighbour assert restricts the group to the ring's rotations:
  // N-1 nontrivial automorphisms, one orbit.
  EXPECT_EQ(Plan.Perms.size(), 2u);
  EXPECT_EQ(Plan.NumOrbits, 1u);
  ASSERT_EQ(Plan.OrbitOf.size(), 3u);
  EXPECT_EQ(Plan.OrbitOf[0], Plan.OrbitOf[1]);
  EXPECT_EQ(Plan.OrbitOf[0], Plan.OrbitOf[2]);
}

TEST(SymmetryInfer, FullySymmetricCounterProvesSymN) {
  for (unsigned N : {2u, 3u, 4u}) {
    auto P = buildCounter(N, 0);
    flat::FlatProgram FP = flat::flatten(*P);
    analysis::SymmetryPlan Plan =
        analysis::inferSymmetry(*P, FP, ir::HoleAssignment{});
    // N identical threads: the full symmetric group, N! - 1 nontrivial
    // permutations, one orbit.
    unsigned Factorial = 1;
    for (unsigned I = 2; I <= N; ++I)
      Factorial *= I;
    EXPECT_EQ(Plan.Perms.size(), Factorial - 1) << "N=" << N;
    EXPECT_EQ(Plan.NumOrbits, 1u) << "N=" << N;
  }
}

TEST(SymmetryInfer, AsymmetricDiningReferenceIsRefused) {
  bench::DiningOptions O;
  O.Philosophers = 3;
  auto P = bench::buildDining(O);
  flat::FlatProgram FP = flat::flatten(*P);
  analysis::SymmetryPlan Plan = analysis::inferSymmetry(
      *P, FP, bench::diningReferenceCandidate(*P, O));
  // The classic solution breaks the ring: the last philosopher acquires
  // in the reverse order, so no nontrivial automorphism survives.
  EXPECT_TRUE(Plan.Perms.empty());
  EXPECT_EQ(Plan.NumOrbits, 3u);
}

TEST(SymmetryInfer, AsymmetricThreadIdObservationIsRefused) {
  // Soundness: no accepted permutation may relate threads whose
  // observation of the raw thread id differs. Case 2 (tid mixed into a
  // non-folding expression) and case 4 (the leaked value read outside an
  // ==/!= discipline, so no value relabeling can hide it) must collapse
  // the group entirely at any thread count.
  for (unsigned N : {2u, 3u})
    for (unsigned Asymmetry : {2u, 4u}) {
      auto P = buildCounter(N, Asymmetry);
      flat::FlatProgram FP = flat::flatten(*P);
      analysis::SymmetryPlan Plan =
          analysis::inferSymmetry(*P, FP, ir::HoleAssignment{});
      EXPECT_TRUE(Plan.Perms.empty())
          << "N=" << N << " asymmetry=" << Asymmetry;
    }
  // Cases 1 and 3 pin only thread 0's observation (assert (tid == 0);
  // epilogue == on thread 0's leaked value). Threads 1..N-1 stay soundly
  // interchangeable — their values relabel away — but every accepted
  // permutation must fix thread 0.
  for (unsigned N : {2u, 3u})
    for (unsigned Asymmetry : {1u, 3u}) {
      auto P = buildCounter(N, Asymmetry);
      flat::FlatProgram FP = flat::flatten(*P);
      analysis::SymmetryPlan Plan =
          analysis::inferSymmetry(*P, FP, ir::HoleAssignment{});
      for (const analysis::ThreadPerm &TP : Plan.Perms)
        EXPECT_EQ(TP.CtxMap[0], 0u)
            << "N=" << N << " asymmetry=" << Asymmetry;
      if (Plan.nontrivial()) {
        EXPECT_NE(Plan.OrbitOf[0], Plan.OrbitOf[1])
            << "N=" << N << " asymmetry=" << Asymmetry;
      }
    }
}

TEST(SymmetryInfer, FixedThreadObservingMappedStateIsRefused) {
  // A thread every candidate permutation fixes (its body shape is unique)
  // still observes state the induced renamings move; its body must feed
  // the same discipline checks as the permuted threads', or swap(1,2)
  // below is accepted without being an automorphism.
  {
    // The monitor copies the value-mapped global into g3. swap(1,2)
    // induces V_g2 = {6<->7}; the monitor's general (non-Eq/Ne) read of
    // g2 must refuse it.
    Program P;
    unsigned G2 = P.addGlobal("g2", Type::Int, 0);
    unsigned G3 = P.addGlobal("g3", Type::Int, 0);
    unsigned M = P.addThread("mon");
    P.setRoot(BodyId::thread(M), P.assign(P.locGlobal(G3), P.global(G2)));
    for (int64_t T = 1; T <= 2; ++T) {
      unsigned Id = P.addThread("t");
      P.setRoot(BodyId::thread(Id),
                P.assign(P.locGlobal(G2), P.constInt(5 + T)));
    }
    P.setRoot(BodyId::epilogue(),
              P.assertS(P.eq(P.constInt(0), P.constInt(0)), "triv"));
    flat::FlatProgram FP = flat::flatten(P);
    analysis::SymmetryPlan Plan =
        analysis::inferSymmetry(P, FP, ir::HoleAssignment{});
    EXPECT_TRUE(Plan.Perms.empty());
  }
  {
    // The monitor writes array slot 1, which swap(1,2)'s slot map moves:
    // slot 1 must be a fixed point of rho_a, so the swap is refused.
    Program P;
    unsigned G = P.addGlobal("g", Type::Int, 0);
    unsigned A = P.addGlobalArray("a", Type::Int, 3, 0);
    unsigned M = P.addThread("mon");
    P.setRoot(
        BodyId::thread(M),
        P.seq({P.assign(P.locGlobal(G), P.add(P.global(G), P.constInt(1))),
               P.assign(P.locGlobalAt(A, P.constInt(1)), P.constInt(1))}));
    for (int64_t T = 1; T <= 2; ++T) {
      unsigned Id = P.addThread("t");
      P.setRoot(BodyId::thread(Id),
                P.assign(P.locGlobalAt(A, P.constInt(T)), P.constInt(1)));
    }
    P.setRoot(BodyId::epilogue(),
              P.assertS(P.eq(P.constInt(0), P.constInt(0)), "triv"));
    flat::FlatProgram FP = flat::flatten(P);
    analysis::SymmetryPlan Plan =
        analysis::inferSymmetry(P, FP, ir::HoleAssignment{});
    EXPECT_TRUE(Plan.Perms.empty());
  }
}

TEST(SymmetryInfer, EpilogueObservationsOutsideTheFragmentAreRefused) {
  {
    // A dynamic (non-folding) subscript of a slot-permuted array: rho_a
    // cannot be shown to commute with a runtime index, so the swap that
    // induces rho_a = {0<->1} must be refused.
    Program P;
    unsigned Idx = P.addGlobal("idx", Type::Int, 0);
    unsigned A = P.addGlobalArray("a", Type::Int, 2, 0);
    for (int64_t T = 0; T < 2; ++T) {
      unsigned Id = P.addThread("t");
      P.setRoot(BodyId::thread(Id),
                P.assign(P.locGlobalAt(A, P.constInt(T)), P.constInt(1)));
    }
    P.setRoot(BodyId::epilogue(),
              P.assertS(P.eq(P.globalAt(A, P.global(Idx)), P.constInt(1)),
                        "dyn"));
    flat::FlatProgram FP = flat::flatten(P);
    analysis::SymmetryPlan Plan =
        analysis::inferSymmetry(P, FP, ir::HoleAssignment{});
    EXPECT_TRUE(Plan.Perms.empty());
  }
  {
    // An Eq against a non-constant does not sanction a value-mapped
    // read: g2 == g3 serializes identically under identity and V_g2, so
    // multiset equality would hide the relabeling — refuse instead.
    Program P;
    unsigned G2 = P.addGlobal("g2", Type::Int, 0);
    unsigned G3 = P.addGlobal("g3", Type::Int, 0);
    for (int64_t T = 0; T < 2; ++T) {
      unsigned Id = P.addThread("t");
      P.setRoot(BodyId::thread(Id),
                P.assign(P.locGlobal(G2), P.constInt(5 + T)));
    }
    P.setRoot(BodyId::epilogue(),
              P.assertS(P.eq(P.global(G2), P.global(G3)), "cmp"));
    flat::FlatProgram FP = flat::flatten(P);
    analysis::SymmetryPlan Plan =
        analysis::inferSymmetry(P, FP, ir::HoleAssignment{});
    EXPECT_TRUE(Plan.Perms.empty());
  }
}

TEST(SymmetryInfer, HeapUsingProgramIsRefused) {
  auto E = lightestRow("queueE1");
  ASSERT_TRUE(E.has_value());
  auto P = E->Build();
  ASSERT_TRUE(static_cast<bool>(E->Reference));
  flat::FlatProgram FP = flat::flatten(*P);
  analysis::SymmetryPlan Plan =
      analysis::inferSymmetry(*P, FP, E->Reference(*P));
  // Heap references are orbit-dependent names the flat canonicalizer
  // cannot rename; the inference refuses conservatively.
  EXPECT_TRUE(Plan.Perms.empty());
}

//===----------------------------------------------------------------------===//
// Accepted permutations are automorphisms (empirical, stepwise).
//===----------------------------------------------------------------------===//

namespace {

/// Checks that every accepted permutation commutes with stepping: run a
/// random schedule sigma on A and pi(sigma) on B from the (pi-fixed)
/// post-prologue state; pi(A) must track B step for step.
void checkAutomorphisms(const exec::Machine &M, const char *Tag) {
  Canonicalizer C(M);
  ASSERT_TRUE(C.active()) << Tag;
  const unsigned SW = M.schedWords();

  exec::State Init = M.initialState();
  {
    exec::Violation V;
    ASSERT_TRUE(M.runToCompletion(Init, M.prologueCtx(), V)) << Tag;
  }

  Rng R(0x5EEDull);
  std::vector<int64_t> Mapped(SW);
  for (unsigned PI = 0; PI < C.numPerms(); ++PI) {
    const std::vector<unsigned> &CtxMap = C.plan().Perms[PI].CtxMap;
    // The post-prologue state of these workloads is symmetric, so pi
    // fixes it and both runs can start from the same point.
    C.apply(PI, Init.words(), Mapped.data());
    ASSERT_EQ(std::memcmp(Mapped.data(), Init.words(), SW * 8), 0) << Tag;

    for (int Trial = 0; Trial < 8; ++Trial) {
      exec::State A = Init;
      exec::State B = Init;
      for (int Step = 0; Step < 60; ++Step) {
        unsigned T = static_cast<unsigned>(R.below(M.numThreads()));
        exec::Violation VA, VB;
        exec::ExecOutcome OA = M.execStep(A, T, VA);
        exec::ExecOutcome OB = M.execStep(B, CtxMap[T], VB);
        // pi is an automorphism: thread T in A and thread pi(T) in B
        // must agree on outcome, program point, and (after relabeling)
        // the whole scheduler-relevant state.
        ASSERT_EQ(OA.Result, OB.Result) << Tag << " perm " << PI;
        ASSERT_EQ(OA.ExecutedPc, OB.ExecutedPc) << Tag << " perm " << PI;
        ASSERT_EQ(VA.VKind, VB.VKind) << Tag << " perm " << PI;
        if (OA.Result == exec::StepResult::Violated)
          break; // the violating step leaves the states mid-transition
        C.apply(PI, A.words(), Mapped.data());
        ASSERT_EQ(std::memcmp(Mapped.data(), B.words(), SW * 8), 0)
            << Tag << " perm " << PI << " diverged at step " << Step;
      }
    }
  }
}

} // namespace

TEST(Symmetry, AcceptedPermsCommuteWithSteppingOnRealRuns) {
  {
    bench::BarrierOptions O;
    O.Threads = 3;
    auto P = bench::buildBarrier(O);
    flat::FlatProgram FP = flat::flatten(*P);
    exec::Machine M(FP, bench::barrierReferenceCandidate(*P, O));
    checkAutomorphisms(M, "barrier1");
  }
  {
    // The symmetric (deadlocking) dining policy: all philosophers take
    // the right stick first. Its automorphisms carry nontrivial value
    // maps (stick owner ids rotate with the threads), so this exercises
    // the relabeling tables the barrier does not.
    bench::DiningOptions O;
    O.Philosophers = 3;
    O.Meals = 2;
    auto P = bench::buildDining(O);
    flat::FlatProgram FP = flat::flatten(*P);
    exec::Machine M(FP, ir::HoleAssignment(P->holes().size(), 0));
    checkAutomorphisms(M, "dining-sym");
  }
}

//===----------------------------------------------------------------------===//
// The canonicalizer is constant on orbits.
//===----------------------------------------------------------------------===//

TEST(Symmetry, CanonicalFormInvariantUnderOrbitPermutations) {
  bench::BarrierOptions O;
  O.Threads = 3;
  auto P = bench::buildBarrier(O);
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, bench::barrierReferenceCandidate(*P, O));
  Canonicalizer C(M);
  ASSERT_TRUE(C.active());
  const unsigned SW = M.schedWords();

  // Sample states from real runs, then check canon(apply(pi, s)) ==
  // canon(s) for every accepted pi. (The accepted set is a group, so
  // permuted reachable states are exactly the orbit mates the visited
  // table must collapse.)
  Rng R(0xCA11ull);
  std::vector<int64_t> Permuted(SW), CanonA(SW), CanonB(SW);
  for (int Trial = 0; Trial < 10; ++Trial) {
    exec::State S = M.initialState();
    exec::Violation V;
    ASSERT_TRUE(M.runToCompletion(S, M.prologueCtx(), V));
    for (int Step = 0; Step < 40; ++Step) {
      unsigned T = static_cast<unsigned>(R.below(M.numThreads()));
      if (M.execStep(S, T, V).Result != exec::StepResult::Ok)
        continue;
      unsigned PermA = Canonicalizer::IdentityPerm;
      const int64_t *CA = C.canonicalize(S.words(), PermA);
      std::memcpy(CanonA.data(), CA, SW * 8);
      for (unsigned PI = 0; PI < C.numPerms(); ++PI) {
        C.apply(PI, S.words(), Permuted.data());
        unsigned PermB = Canonicalizer::IdentityPerm;
        const int64_t *CB = C.canonicalize(Permuted.data(), PermB);
        std::memcpy(CanonB.data(), CB, SW * 8);
        ASSERT_EQ(std::memcmp(CanonA.data(), CanonB.data(), SW * 8), 0)
            << "perm " << PI << " at trial " << Trial << " step " << Step;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Reduction.
//===----------------------------------------------------------------------===//

TEST(Symmetry, OrbitReducesStatesAndCountsHits) {
  bench::BarrierOptions O;
  O.Threads = 3;
  auto P = bench::buildBarrier(O);
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, bench::barrierReferenceCandidate(*P, O));

  CheckerConfig Off;
  Off.UseRandomFalsifier = false;
  Off.Symmetry = SymmetryMode::Off;
  CheckerConfig Orbit = Off;
  Orbit.Symmetry = SymmetryMode::Orbit;
  CheckResult RO = checkCandidate(M, Off);
  CheckResult RS = checkCandidate(M, Orbit);
  ASSERT_TRUE(RO.Ok);
  ASSERT_TRUE(RS.Ok);
  EXPECT_LT(RS.StatesExplored, RO.StatesExplored);
  EXPECT_EQ(RS.SymmetryOrbits, 1u);
  EXPECT_GT(RS.CanonHits, 0u);
  EXPECT_EQ(RO.SymmetryOrbits, 0u); // the counters are Orbit-only
  EXPECT_EQ(RO.CanonHits, 0u);
}

//===----------------------------------------------------------------------===//
// The near-symmetry lint.
//===----------------------------------------------------------------------===//

TEST(Symmetry, NearSymmetryLintFlagsOneLiteralAway) {
  // Two threads identical except for one literal: no orbit, but the lint
  // should point at the repairable pair.
  Program P;
  unsigned G = P.addGlobal("g", Type::Int, 0);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("t");
    P.setRoot(BodyId::thread(Id),
              P.assign(P.locGlobal(G),
                       P.add(P.global(G), P.constInt(T == 0 ? 1 : 2))));
  }
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(G), P.constInt(3)), "sum"));
  flat::FlatProgram FP = flat::flatten(P);
  bool Found = false;
  for (const analysis::Diagnostic &D : analysis::lint(P, FP))
    Found = Found || D.Message.find("near-symmetry") != std::string::npos;
  EXPECT_TRUE(Found);

  // Identical threads form an orbit: nothing near-symmetric to report.
  auto Sym = buildCounter(2, 0);
  flat::FlatProgram FPS = flat::flatten(*Sym);
  for (const analysis::Diagnostic &D : analysis::lint(*Sym, FPS))
    EXPECT_EQ(D.Message.find("near-symmetry"), std::string::npos)
        << D.Message;
}
