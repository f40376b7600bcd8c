//===- tests/test_benchmarks.cpp - the paper's benchmark sketches ----------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Barrier.h"
#include "benchmarks/Dining.h"
#include "benchmarks/FineSet.h"
#include "benchmarks/LazySet.h"
#include "benchmarks/Queue.h"
#include "benchmarks/Suite.h"
#include "benchmarks/Workload.h"
#include "cegis/Cegis.h"
#include "desugar/Flatten.h"
#include "verify/ModelChecker.h"

#include <gtest/gtest.h>

using namespace psketch;
using namespace psketch::bench;
using namespace psketch::ir;

namespace {

verify::CheckResult checkCandidateOf(Program &P, const HoleAssignment &H) {
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, H);
  return verify::checkCandidate(M);
}

} // namespace

//===----------------------------------------------------------------------===//
// Candidate-space sizes (Table 1's orders of magnitude).
//===----------------------------------------------------------------------===//

TEST(Table1, CandidateSpaceSizes) {
  Workload W = parseWorkload("ed(ed|ed)");
  EXPECT_EQ(buildQueue(W, QueueOptions{false, false})
                ->candidateSpaceSize()
                .asU64(),
            4u);
  double DE1 = buildQueue(W, QueueOptions{false, true})
                   ->candidateSpaceSize()
                   .log10();
  EXPECT_NEAR(DE1, 3.0, 0.5);
  double E2 =
      buildQueue(W, QueueOptions{true, false})->candidateSpaceSize().log10();
  EXPECT_NEAR(E2, 6.4, 0.5);
  double DE2 =
      buildQueue(W, QueueOptions{true, true})->candidateSpaceSize().log10();
  EXPECT_NEAR(DE2, 8.9, 0.5);
  EXPECT_NEAR(buildBarrier(BarrierOptions{3, 2, false})
                  ->candidateSpaceSize()
                  .log10(),
              4.0, 0.6);
  EXPECT_NEAR(buildBarrier(BarrierOptions{2, 3, true})
                  ->candidateSpaceSize()
                  .log10(),
              7.0, 0.6);
  Workload WS = parseWorkload("ar(ar|ar)");
  EXPECT_NEAR(buildFineSet(WS, FineSetOptions{false})
                  ->candidateSpaceSize()
                  .log10(),
              3.5, 0.6);
  EXPECT_NEAR(
      buildFineSet(WS, FineSetOptions{true})->candidateSpaceSize().log10(),
      7.1, 0.6);
  EXPECT_NEAR(buildLazySet(WS)->candidateSpaceSize().log10(), 2.7, 0.6);
  EXPECT_NEAR(
      buildDining(DiningOptions{3, 5})->candidateSpaceSize().log10(), 6.4,
      0.6);
}

//===----------------------------------------------------------------------===//
// The specification accepts the known-correct implementations...
//===----------------------------------------------------------------------===//

TEST(QueueSpec, ReferencePassesAllWorkloads) {
  for (const char *Pattern : {"ed(ee|dd)", "ed(ed|ed)", "(e|e|e)ddd"}) {
    for (bool Full : {false, true}) {
      QueueOptions O{Full, true, ReorderEncoding::Quadratic};
      auto P = buildQueue(parseWorkload(Pattern), O);
      auto R = checkCandidateOf(*P, queueReferenceCandidate(*P, O));
      EXPECT_TRUE(R.Ok) << Pattern << " full=" << Full << ": "
                        << (R.Cex ? R.Cex->V.Label : "");
    }
  }
}

TEST(BarrierSpec, ReferencePasses) {
  for (BarrierOptions O : {BarrierOptions{3, 2, false},
                           BarrierOptions{2, 3, true}}) {
    auto P = buildBarrier(O);
    auto R = checkCandidateOf(*P, barrierReferenceCandidate(*P, O));
    EXPECT_TRUE(R.Ok) << "N=" << O.Threads << " B=" << O.Rounds;
  }
}

TEST(FineSetSpec, ReferencePasses) {
  for (bool Full : {false, true}) {
    FineSetOptions O{Full, ReorderEncoding::Quadratic};
    auto P = buildFineSet(parseWorkload("ar(ar|ar)"), O);
    auto R = checkCandidateOf(*P, fineSetReferenceCandidate(*P, O));
    EXPECT_TRUE(R.Ok) << "full=" << Full;
  }
}

TEST(LazySetSpec, ReferencePasses) {
  auto P = buildLazySet(parseWorkload("ar(aa|rr)"));
  auto R = checkCandidateOf(*P, lazySetReferenceCandidate(*P));
  EXPECT_TRUE(R.Ok) << (R.Cex ? R.Cex->V.Label : "");
}

TEST(DiningSpec, ReferencePasses) {
  DiningOptions O{3, 3};
  auto P = buildDining(O);
  auto R = checkCandidateOf(*P, diningReferenceCandidate(*P, O));
  EXPECT_TRUE(R.Ok);
}

//===----------------------------------------------------------------------===//
// ...and rejects known-broken mutations.
//===----------------------------------------------------------------------===//

TEST(QueueSpec, RacyEnqueueFixupRejected) {
  // queueE1 with the fixup written to tail.next instead of tmp.next loses
  // nodes under concurrent enqueues.
  QueueOptions O{false, false};
  auto P = buildQueue(parseWorkload("ed(ee|dd)"), O);
  HoleAssignment H = queueReferenceCandidate(*P, O);
  H[0] = 1; // enq.fixLoc = tail.next
  auto R = checkCandidateOf(*P, H);
  EXPECT_FALSE(R.Ok);
}

TEST(QueueSpec, WrongFixupValueRejected) {
  QueueOptions O{false, false};
  auto P = buildQueue(parseWorkload("ed(ee|dd)"), O);
  HoleAssignment H = queueReferenceCandidate(*P, O);
  H[1] = 1; // enq.fixVal = tmp: links the old tail to itself
  auto R = checkCandidateOf(*P, H);
  EXPECT_FALSE(R.Ok);
}

TEST(BarrierSpec, MissingResetDeadlocks) {
  BarrierOptions O{3, 2, false};
  auto P = buildBarrier(O);
  HoleAssignment H = barrierReferenceCandidate(*P, O);
  // Make the reset guard always false: nobody wakes the waiters.
  for (size_t I = 0; I < P->holes().size(); ++I)
    if (P->holes()[I].Name == "bar.reset.form")
      H[I] = 11; // the "false" form
  auto R = checkCandidateOf(*P, H);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::Deadlock);
}

TEST(DiningSpec, SymmetricPolicyDeadlocks) {
  DiningOptions O{3, 2};
  auto P = buildDining(O);
  HoleAssignment H = diningReferenceCandidate(*P, O);
  for (size_t I = 0; I < P->holes().size(); ++I)
    if (P->holes()[I].Name == "phil.acq.form")
      H[I] = 1; // "false": everyone grabs the left stick first
  auto R = checkCandidateOf(*P, H);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Cex->V.VKind, exec::Violation::Kind::Deadlock);
}

TEST(FineSetSpec, NoHandOverHandRejected) {
  // Never locking ahead (comp1 = false) breaks the sliding window.
  FineSetOptions O{false};
  auto P = buildFineSet(parseWorkload("ar(ar|ar)"), O);
  HoleAssignment H = fineSetReferenceCandidate(*P, O);
  for (size_t I = 0; I < P->holes().size(); ++I)
    if (P->holes()[I].Name == "find.comp1")
      H[I] = 1; // false
  auto R = checkCandidateOf(*P, H);
  EXPECT_FALSE(R.Ok);
}

//===----------------------------------------------------------------------===//
// End-to-end CEGIS on the fast Figure 9 rows.
//===----------------------------------------------------------------------===//

namespace {

cegis::CegisResult runCegis(Program &P) {
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 100;
  Cfg.TimeLimitSeconds = 240;
  cegis::ConcurrentCegis C(P, Cfg);
  return C.run();
}

} // namespace

TEST(CegisE2E, QueueE1) {
  auto P = buildQueue(parseWorkload("ed(ee|dd)"), QueueOptions{});
  auto R = runCegis(*P);
  EXPECT_TRUE(R.Stats.Resolvable);
}

TEST(CegisE2E, QueueDE1) {
  auto P =
      buildQueue(parseWorkload("ed(ed|ed)"), QueueOptions{false, true});
  auto R = runCegis(*P);
  EXPECT_TRUE(R.Stats.Resolvable);
  // The synthesized candidate itself passes a fresh verification.
  auto Check = checkCandidateOf(*P, R.Candidate);
  EXPECT_TRUE(Check.Ok);
}

TEST(CegisE2E, QueueE2ResolvesFigure1Sketch) {
  auto P =
      buildQueue(parseWorkload("ed(ed|ed)"), QueueOptions{true, false});
  auto R = runCegis(*P);
  ASSERT_TRUE(R.Stats.Resolvable);
  auto Check = checkCandidateOf(*P, R.Candidate);
  EXPECT_TRUE(Check.Ok);
}

TEST(CegisE2E, FineSet1) {
  auto P = buildFineSet(parseWorkload("ar(ar|ar)"), FineSetOptions{false});
  auto R = runCegis(*P);
  EXPECT_TRUE(R.Stats.Resolvable);
}

TEST(CegisE2E, LazySetSplitWorkloadResolves) {
  auto P = buildLazySet(parseWorkload("ar(aa|rr)"));
  auto R = runCegis(*P);
  EXPECT_TRUE(R.Stats.Resolvable) << "the paper's surprise YES";
}

TEST(CegisE2E, LazySetMixedWorkloadUnresolvable) {
  auto P = buildLazySet(parseWorkload("ar(ar|ar)"));
  auto R = runCegis(*P);
  EXPECT_FALSE(R.Stats.Resolvable) << "the paper's NO answer";
  EXPECT_FALSE(R.Stats.Aborted);
}

TEST(CegisE2E, DiningPhilosophers) {
  auto P = buildDining(DiningOptions{3, 3});
  auto R = runCegis(*P);
  EXPECT_TRUE(R.Stats.Resolvable);
}

TEST(SynthMemory, BytesPerClauseCeiling) {
  // The synthesizer's storage per CNF clause on one Figure 9 row at W=1:
  // the allocated capacity of the solver (watch pool and list headers,
  // clause arena, per-variable arrays) and of the gate graph (nodes and
  // structural hash), over the clauses the run learned. Capacities follow
  // from the search trajectory, so the figure is exact: 81.35 B with
  // pooled watch lists and 8-byte hash slots, 100.28 B with a vector per
  // watch list and 16-byte slots. The ceiling leaves about 10% headroom.
  SuiteEntry Row;
  for (const SuiteEntry &E : paperSuite("barrier1"))
    if (E.Test == "N=3,B=2")
      Row = E;
  ASSERT_TRUE(Row.Build) << "barrier1 N=3,B=2 is a Figure 9 row";
  auto P = Row.Build();
  cegis::CegisConfig Cfg;
  Cfg.Checker.NumThreads = 1;
  // The figures above are the default config's, whatever the
  // PSKETCH_WARM_START and PSKETCH_SHAPE environment says.
  Cfg.SolverWarmStart = true;
  Cfg.Shape = true;
  cegis::CegisResult R = cegis::ConcurrentCegis(*P, Cfg).run();
  ASSERT_TRUE(R.Stats.Resolvable);
  ASSERT_GT(R.Stats.ClauseCount, 0u);
  double BytesPerClause = static_cast<double>(R.Stats.SynthBytes) /
                          static_cast<double>(R.Stats.ClauseCount);
  EXPECT_LE(BytesPerClause, 90.0)
      << R.Stats.SynthBytes << " bytes over " << R.Stats.ClauseCount
      << " clauses";
}

TEST(Suite, RegistryIsComplete) {
  auto All = paperSuite();
  EXPECT_EQ(All.size(), 26u); // every Figure 9 row
  EXPECT_EQ(paperSuite("queueE1").size(), 3u);
  EXPECT_EQ(paperSuite("lazyset").size(), 2u);
  for (const auto &E : All) {
    auto P = E.Build();
    EXPECT_GT(P->candidateSpaceSize().log10(), -0.1) << E.Sketch;
    EXPECT_GT(P->numThreads(), 0u) << E.Sketch;
  }
}

//===----------------------------------------------------------------------===//
// The headline integration test: every Figure 9 row reproduces the
// paper's resolvability verdict end to end.
//===----------------------------------------------------------------------===//

class Figure9Test
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(Figure9Test, VerdictMatchesPaper) {
  auto [Sketch, Test] = GetParam();
  for (const SuiteEntry &E : paperSuite(Sketch)) {
    if (E.Test != Test)
      continue;
    auto P = E.Build();
    cegis::CegisConfig Cfg;
    Cfg.MaxIterations = 300;
    Cfg.TimeLimitSeconds = 180;
    cegis::ConcurrentCegis C(*P, Cfg);
    auto R = C.run();
    ASSERT_FALSE(R.Stats.Aborted) << Sketch << " " << Test;
    EXPECT_EQ(R.Stats.Resolvable, E.PaperResolvable) << Sketch << " " << Test;
    if (R.Stats.Resolvable) {
      // The synthesized candidate re-verifies on a fresh build.
      auto P2 = E.Build();
      flat::FlatProgram FP2 = flat::flatten(*P2);
      exec::Machine M(FP2, R.Candidate);
      EXPECT_TRUE(verify::checkCandidate(M).Ok) << Sketch << " " << Test;
    }
    return;
  }
  FAIL() << "row not found: " << Sketch << " " << Test;
}

INSTANTIATE_TEST_SUITE_P(
    AllRows, Figure9Test,
    ::testing::Values(
        std::make_tuple("queueE1", "ed(ee|dd)"),
        std::make_tuple("queueE1", "ed(ed|ed)"),
        std::make_tuple("queueE1", "(e|e|e)ddd"),
        std::make_tuple("queueDE1", "ed(ee|dd)"),
        std::make_tuple("queueDE1", "ed(ed|ed)"),
        std::make_tuple("queueE2", "ed(ed|ed)"),
        std::make_tuple("queueE2", "(e|e|e)ddd"),
        std::make_tuple("queueDE2", "ed(ed|ed)"),
        std::make_tuple("barrier1", "N=3,B=2"),
        std::make_tuple("barrier1", "N=3,B=3"),
        std::make_tuple("barrier2", "N=2,B=3"),
        std::make_tuple("fineset1", "ar(ar|ar)"),
        std::make_tuple("fineset1", "ar(ar|ar|ar)"),
        std::make_tuple("fineset1", "ar(a|r|a|r)"),
        std::make_tuple("fineset1", "ar(arar|arar)"),
        std::make_tuple("fineset1", "ar(aaaa|rrrr)"),
        std::make_tuple("fineset2", "ar(ar|ar)"),
        std::make_tuple("fineset2", "ar(ar|ar|ar)"),
        std::make_tuple("fineset2", "ar(a|r|a|r)"),
        std::make_tuple("fineset2", "ar(arar|arar)"),
        std::make_tuple("fineset2", "ar(aaaa|rrrr)"),
        std::make_tuple("lazyset", "ar(aa|rr)"),
        std::make_tuple("lazyset", "ar(ar|ar)"),
        std::make_tuple("dinphilo", "N=3,T=5"),
        std::make_tuple("dinphilo", "N=4,T=3"),
        std::make_tuple("dinphilo", "N=5,T=3")));
