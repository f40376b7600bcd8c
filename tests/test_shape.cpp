//===- tests/test_shape.cpp - points-to, shape lint & partition tests -----===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The guarantees under test (docs/ANALYSIS.md, Pass 5):
//  * the PtSet lattice behaves (join, resolution, disjointness);
//  * the allocation-site points-to solution separates prologue-published
//    structure from thread-private nodes and proves must-not-alias pairs;
//  * the two lint fixtures produce their exact diagnostics: the
//    sorted-list race fixture yields exactly one heap-field race, the
//    leak fixture yields the leak and the provably-null dereference and
//    stays quiet about the published node;
//  * the heap partition splits the per-field footprint class: disjoint
//    single-site writes commute under the tuning and still conflict
//    without it, and declared-commuting pairs agree in both orders on
//    randomized reachable states (the POR soundness obligation);
//  * per-site interval cells export HeapSlots bounds for prologue-owned
//    pools, tighter than the per-field class row;
//  * symmetry inference admits disciplined thread-private heaps (one
//    orbit) and still refuses escaping thread allocations and
//    value-asymmetric heap bodies;
//  * CEGIS integration: --shape on/off verdict agreement on heap
//    sketches, the audit's zero-false-prunes gate, and the
//    min-where-ran stats accumulation policy for ShapeSites and
//    SiteIndepPairs.
//
//===----------------------------------------------------------------------===//

#include "analysis/AbsInt.h"
#include "analysis/Analyzer.h"
#include "analysis/PointsTo.h"
#include "analysis/Shape.h"
#include "analysis/SymmetryInfer.h"
#include "cegis/Cegis.h"
#include "desugar/Flatten.h"
#include "exec/Machine.h"
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

/// Loads a .psk fixture relative to the tests/ source dir.
std::unique_ptr<Program> parseFixture(const std::string &RelPath) {
  std::ifstream File(std::string(PSKETCH_TEST_DIR) + "/" + RelPath);
  EXPECT_TRUE(File.good()) << "fixture missing: " << RelPath;
  if (!File.good())
    return nullptr;
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  frontend::ParseResult Parsed = frontend::parseProgram(Buffer.str());
  EXPECT_TRUE(Parsed.ok()) << Parsed.Error;
  return std::move(Parsed.Program);
}

bool hasDiag(const std::vector<Diagnostic> &Diags, const std::string &Pass,
             const std::string &Needle) {
  for (const Diagnostic &D : Diags)
    if (D.Pass == Pass && D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

unsigned countDiags(const std::vector<Diagnostic> &Diags,
                    const std::string &Pass, const std::string &Needle) {
  unsigned N = 0;
  for (const Diagnostic &D : Diags)
    if (D.Pass == Pass && D.Message.find(Needle) != std::string::npos)
      ++N;
  return N;
}

/// Prologue allocates one node per global pointer; each thread writes a
/// field of its own node. The per-field class footprint conflicts, the
/// per-(site, field) partition does not.
std::unique_ptr<Program> buildDisjointWriters() {
  auto P = std::make_unique<Program>();
  unsigned Val = P->addField("val", Type::Int);
  unsigned A = P->addGlobal("a", Type::Ptr, 0);
  unsigned B = P->addGlobal("b", Type::Ptr, 0);
  P->setPoolSize(2);
  P->setRoot(BodyId::prologue(),
             P->seq({P->alloc(P->locGlobal(A)), P->alloc(P->locGlobal(B))}));
  unsigned T0 = P->addThread("t0");
  P->setRoot(BodyId::thread(T0),
             P->assign(P->locField(P->global(A), Val), P->constInt(1)));
  unsigned T1 = P->addThread("t1");
  P->setRoot(BodyId::thread(T1),
             P->assign(P->locField(P->global(B), Val), P->constInt(2)));
  P->setRoot(BodyId::epilogue(),
             P->assertS(P->eq(P->field(P->global(A), Val), P->constInt(1)),
                        "a kept"));
  return P;
}

/// A heap sketch with one resolving candidate: a.val = {1|2} and
/// b.val = {2|3} must sum to 5, so only (2, 3) passes.
std::unique_ptr<Program> buildHeapSketch() {
  auto P = std::make_unique<Program>();
  unsigned Val = P->addField("val", Type::Int);
  unsigned A = P->addGlobal("a", Type::Ptr, 0);
  unsigned B = P->addGlobal("b", Type::Ptr, 0);
  P->setPoolSize(2);
  P->setRoot(BodyId::prologue(),
             P->seq({P->alloc(P->locGlobal(A)), P->alloc(P->locGlobal(B))}));
  unsigned T0 = P->addThread("t0");
  P->setRoot(BodyId::thread(T0),
             P->assign(P->locField(P->global(A), Val),
                       P->choose("va", {P->constInt(1), P->constInt(2)})));
  unsigned T1 = P->addThread("t1");
  P->setRoot(BodyId::thread(T1),
             P->assign(P->locField(P->global(B), Val),
                       P->choose("vb", {P->constInt(2), P->constInt(3)})));
  P->setRoot(BodyId::epilogue(),
             P->assertS(P->eq(P->add(P->field(P->global(A), Val),
                                     P->field(P->global(B), Val)),
                              P->constInt(5)),
                        "sums to five"));
  return P;
}

/// Two structurally identical threads, each allocating a private node
/// and storing into it. \p Publish leaks the node through a shared
/// global (the D2 escape refusal); \p SameVal = false stores a
/// thread-dependent constant (the D1 value-relabel refusal).
std::unique_ptr<Program> buildPrivateHeapPair(bool Publish, bool SameVal) {
  auto P = std::make_unique<Program>();
  unsigned Val = P->addField("val", Type::Int);
  unsigned G = P->addGlobal("g", Type::Ptr, 0);
  P->setPoolSize(2);
  for (unsigned T = 0; T < 2; ++T) {
    unsigned Id = P->addThread("t");
    BodyId B = BodyId::thread(Id);
    unsigned L = P->addLocal(B, "n", Type::Ptr, 0);
    std::vector<StmtRef> Stmts;
    Stmts.push_back(P->alloc(P->locLocal(L)));
    Stmts.push_back(
        P->assign(P->locField(P->local(L, Type::Ptr), Val),
                  P->constInt(SameVal ? 1 : static_cast<int64_t>(T + 1))));
    if (Publish)
      Stmts.push_back(P->assign(P->locGlobal(G), P->local(L, Type::Ptr)));
    P->setRoot(B, P->seq(std::move(Stmts)));
  }
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// PtSet lattice.
//===----------------------------------------------------------------------===//

TEST(PtSet, LatticeBasics) {
  PtSet N = PtSet::null();
  EXPECT_TRUE(N.definitelyNull());
  EXPECT_TRUE(N.resolved());

  PtSet S0 = PtSet::site(0);
  PtSet S1 = PtSet::site(1);
  EXPECT_TRUE(S0.resolved());
  EXPECT_FALSE(S0.definitelyNull());
  EXPECT_TRUE(S0.disjointSites(S1));

  PtSet J = S0;
  J.join(S1);
  EXPECT_TRUE(J.resolved());
  EXPECT_EQ(J.Sites, 3u);
  EXPECT_FALSE(J.disjointSites(S1));

  PtSet T = PtSet::top();
  EXPECT_FALSE(T.resolved());
  EXPECT_FALSE(T.disjointSites(S0));
  PtSet S0T = S0;
  S0T.join(T);
  EXPECT_FALSE(S0T.resolved());
}

//===----------------------------------------------------------------------===//
// The points-to solution on a published-plus-private heap.
//===----------------------------------------------------------------------===//

TEST(PointsTo, SeparatesPublishedFromPrivateSites) {
  auto P = buildPrivateHeapPair(/*Publish=*/false, /*SameVal=*/true);
  flat::FlatProgram FP = flat::flatten(*P);
  PointsToResult R = runPointsTo(FP, nullptr);
  ASSERT_TRUE(R.Ran);
  ASSERT_EQ(R.Sites.size(), 2u);
  // Neither node is reachable from a global: both thread-private.
  EXPECT_EQ(R.Escaping, 0u);
  EXPECT_EQ(R.ThreadPrivate, 3u);
  // Distinct allocation sites never alias.
  EXPECT_GE(R.mustNotAliasPairs(), 1u);
  // Each thread's local dereference resolves to its own site only.
  for (unsigned T = 0; T < 2; ++T)
    for (const auto &KV : R.Derefs[T]) {
      EXPECT_TRUE(KV.second.resolved()) << "thread " << T;
      EXPECT_EQ(KV.second.Sites & (KV.second.Sites - 1), 0u)
          << "thread " << T << ": more than one site";
    }
}

TEST(PointsTo, PublishingEscapesTheSite) {
  auto P = buildDisjointWriters();
  flat::FlatProgram FP = flat::flatten(*P);
  PointsToResult R = runPointsTo(FP, nullptr);
  ASSERT_TRUE(R.Ran);
  ASSERT_EQ(R.Sites.size(), 2u);
  EXPECT_EQ(R.Escaping, 3u) << "both nodes reachable from globals";
  EXPECT_EQ(R.ThreadPrivate, 0u);
}

//===----------------------------------------------------------------------===//
// Fixture diagnostics (exact text).
//===----------------------------------------------------------------------===//

TEST(Fixture, SortedListRaceIsFlagged) {
  auto P = parseFixture("../examples/sorted_list_race.psk");
  ASSERT_TRUE(P);
  flat::FlatProgram FP = flat::flatten(*P);
  std::vector<Diagnostic> Diags = lint(*P, FP);

  EXPECT_TRUE(hasDiag(
      Diags, "shape",
      "possible race on heap field 'val' of the shared node allocated at "
      "'lo = new Node();': no common lock protects all access sites"))
      << "exact race diagnostic missing";
  // The locked field is the only race; the list links stay quiet, and
  // nothing leaks (both nodes are published through head).
  EXPECT_EQ(countDiags(Diags, "shape", "possible race"), 1u);
  EXPECT_FALSE(hasDiag(Diags, "shape", "allocation never published"));
  EXPECT_FALSE(hasDiag(Diags, "shape", "provably-null"));
}

TEST(Fixture, LeakAndNullDerefAreFlagged) {
  auto P = parseFixture("fixtures/leak_null.psk");
  ASSERT_TRUE(P);
  flat::FlatProgram FP = flat::flatten(*P);
  std::vector<Diagnostic> Diags = lint(*P, FP);

  EXPECT_TRUE(hasDiag(
      Diags, "shape",
      "field access through a provably-null pointer: this dereference "
      "faults on every execution that reaches it"))
      << "exact null-deref diagnostic missing";
  EXPECT_TRUE(hasDiag(
      Diags, "shape",
      "allocation never published: the node is unreachable from every "
      "global at quiescence (leaked pool capacity, acyclic-list)"))
      << "exact leak diagnostic missing";
  // Exactly one leak: the published `keep` node must stay quiet. And an
  // unlocked single-writer heap is not a race.
  EXPECT_EQ(countDiags(Diags, "shape", "allocation never published"), 1u);
  EXPECT_EQ(countDiags(Diags, "shape", "provably-null"), 1u);
  EXPECT_EQ(countDiags(Diags, "shape", "possible race"), 0u);
}

TEST(Fixture, ShapeClassifiesRaceListSites) {
  auto P = parseFixture("../examples/sorted_list_race.psk");
  ASSERT_TRUE(P);
  flat::FlatProgram FP = flat::flatten(*P);
  ShapeResult R = runShape(*P, FP);
  ASSERT_TRUE(R.Ran);
  ASSERT_EQ(R.SiteShapes.size(), 2u);
  EXPECT_EQ(R.Pts.Sites.size(), 2u);
  EXPECT_GE(R.Pts.mustNotAliasPairs(), 1u);
  // Both list nodes are reachable from `head`: escaping, not leaked.
  EXPECT_EQ(R.SiteShapes[0], ShapeKind::Escaping);
  EXPECT_EQ(R.SiteShapes[1], ShapeKind::Escaping);
  EXPECT_EQ(R.LeakedSites, 0u);
  ASSERT_EQ(R.HeapRaces.size(), 1u);
  EXPECT_EQ(R.HeapRaces[0].FieldName, "val");
}

//===----------------------------------------------------------------------===//
// Footprint partition: disjoint sites commute, and only then.
//===----------------------------------------------------------------------===//

TEST(Footprint, SitePartitionSplitsDisjointNodeWrites) {
  auto P = buildDisjointWriters();
  flat::FlatProgram FP = flat::flatten(*P);
  HoleAssignment C(P->holes().size(), 0);

  exec::Machine Plain(FP, C);
  EXPECT_FALSE(Plain.commutes(0, 0, 1, 0))
      << "class footprint must merge all nodes' val cells";

  PointsToResult R = runPointsTo(FP, &C);
  ASSERT_TRUE(R.Ran);
  exec::HeapPartition H = toHeapPartition(R);
  ASSERT_FALSE(H.empty());
  exec::MachineTuning Tuning;
  Tuning.Heap = &H;
  exec::Machine Tuned(FP, C, Tuning);
  EXPECT_EQ(Tuned.shapeSites(), 2u);
  EXPECT_GT(Tuned.siteIndepPairs(), 0u);
  EXPECT_TRUE(Tuned.commutes(0, 0, 1, 0))
      << "single-site writes to distinct nodes must commute";
}

TEST(Footprint, ShapeTunedCommutingPairsAgreeInBothOrders) {
  // The POR soundness obligation under the partition: any co-enabled
  // pair the tuned footprints declare commuting must produce the same
  // state in either order, on randomized reachable states.
  Rng R(0x5A7Eull);
  unsigned PairsChecked = 0;
  for (int Which = 0; Which < 3; ++Which) {
    std::unique_ptr<Program> P =
        Which == 0 ? buildDisjointWriters()
                   : buildPrivateHeapPair(Which == 1, /*SameVal=*/true);
    flat::FlatProgram FP = flat::flatten(*P);
    HoleAssignment C(P->holes().size(), 0);
    PointsToResult Pts = runPointsTo(FP, &C);
    ASSERT_TRUE(Pts.Ran) << Which;
    exec::HeapPartition H = toHeapPartition(Pts);
    exec::MachineTuning Tuning;
    if (!H.empty())
      Tuning.Heap = &H;
    exec::Machine M(FP, C, Tuning);

    for (int Schedule = 0; Schedule < 8; ++Schedule) {
      exec::State S = M.initialState();
      exec::Violation V;
      if (!M.runToCompletion(S, M.prologueCtx(), V))
        break;
      for (int Step = 0; Step < 16; ++Step) {
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
            exec::State AB = S, BA = S;
            if (M.execStep(AB, T0, V).Result != exec::StepResult::Ok ||
                M.execStep(AB, T1, V).Result != exec::StepResult::Ok ||
                M.execStep(BA, T1, V).Result != exec::StepResult::Ok ||
                M.execStep(BA, T0, V).Result != exec::StepResult::Ok)
              continue;
            EXPECT_TRUE(AB == BA)
                << "workload " << Which << " pcs " << O0.ExecutedPc << "/"
                << O1.ExecutedPc
                << ": shape-declared-commuting pair disagrees";
            ++PairsChecked;
          }
        unsigned Ctx = static_cast<unsigned>(R.below(M.numThreads()));
        if (M.execStep(S, Ctx, V).Result == exec::StepResult::Violated)
          break;
      }
    }
  }
  EXPECT_GT(PairsChecked, 0u);
}

//===----------------------------------------------------------------------===//
// Per-site interval cells.
//===----------------------------------------------------------------------===//

TEST(AbsInt, HeapSlotsExportForPrologueOwnedPool) {
  auto P = buildDisjointWriters();
  flat::FlatProgram FP = flat::flatten(*P);
  HoleAssignment C(P->holes().size(), 0);
  PointsToResult Pts = runPointsTo(FP, &C);
  ASSERT_TRUE(Pts.Ran);

  AbsIntResult R = runAbsInt(*P, FP, &C, AbsIntConfig(), &Pts);
  EXPECT_FALSE(R.Refuted);
  // Both sites are unconditional prologue allocations: per-node bounds
  // export, and each node's val cell sees only its own thread's store.
  const size_t NF = P->fields().size();
  ASSERT_EQ(R.Bounds.HeapSlots.size(), static_cast<size_t>(P->poolSize()) * NF);
  EXPECT_EQ(R.Bounds.HeapSlots[0].Lo, 0);
  EXPECT_EQ(R.Bounds.HeapSlots[0].Hi, 1) << "node a: val in [0,1]";
  EXPECT_EQ(R.Bounds.HeapSlots[NF].Lo, 0);
  EXPECT_EQ(R.Bounds.HeapSlots[NF].Hi, 2) << "node b: val in [0,2]";
  // The class row must cover the union (the coarse fallback).
  ASSERT_EQ(R.Bounds.HeapFields.size(), NF);
  EXPECT_LE(R.Bounds.HeapFields[0].Lo, 0);
  EXPECT_GE(R.Bounds.HeapFields[0].Hi, 2);
}

TEST(AbsInt, ThreadAllocatedPoolRefusesSlotExport) {
  auto P = buildPrivateHeapPair(/*Publish=*/false, /*SameVal=*/true);
  flat::FlatProgram FP = flat::flatten(*P);
  HoleAssignment C(P->holes().size(), 0);
  PointsToResult Pts = runPointsTo(FP, &C);
  ASSERT_TRUE(Pts.Ran);
  AbsIntResult R = runAbsInt(*P, FP, &C, AbsIntConfig(), &Pts);
  // Thread allocations: node identity depends on the schedule, so the
  // node-major export must stay off.
  EXPECT_TRUE(R.Bounds.HeapSlots.empty());
}

//===----------------------------------------------------------------------===//
// Symmetry: disciplined private heaps unlock, escapes stay refused.
//===----------------------------------------------------------------------===//

TEST(SymmetryInfer, DisciplinedPrivateHeapProvesOneOrbit) {
  auto P = buildPrivateHeapPair(/*Publish=*/false, /*SameVal=*/true);
  flat::FlatProgram FP = flat::flatten(*P);
  SymmetryPlan Plan = inferSymmetry(*P, FP, HoleAssignment{});
  EXPECT_FALSE(Plan.Perms.empty())
      << "thread-private isomorphic heaps must be admissible";
  EXPECT_EQ(Plan.NumOrbits, 1u);
}

TEST(SymmetryInfer, EscapingThreadAllocationStaysRefused) {
  auto P = buildPrivateHeapPair(/*Publish=*/true, /*SameVal=*/true);
  flat::FlatProgram FP = flat::flatten(*P);
  SymmetryPlan Plan = inferSymmetry(*P, FP, HoleAssignment{});
  EXPECT_TRUE(Plan.Perms.empty());
  bool Noted = false;
  for (const std::string &N : Plan.Notes)
    Noted = Noted || N.find("escapes its thread") != std::string::npos;
  EXPECT_TRUE(Noted) << "refusal must say why";
}

TEST(SymmetryInfer, ValueAsymmetricHeapBodyIsRefused) {
  auto P = buildPrivateHeapPair(/*Publish=*/false, /*SameVal=*/false);
  flat::FlatProgram FP = flat::flatten(*P);
  SymmetryPlan Plan = inferSymmetry(*P, FP, HoleAssignment{});
  // Swapping the threads would need a value relabeling through heap
  // cells, where node ids and payloads are indistinguishable: refused.
  EXPECT_TRUE(Plan.Perms.empty());
}

TEST(SymmetryInfer, SiteGraphIsomorphismChecksPerContext) {
  auto P = buildPrivateHeapPair(/*Publish=*/false, /*SameVal=*/true);
  flat::FlatProgram FP = flat::flatten(*P);
  PointsToResult R = runPointsTo(FP, nullptr);
  ASSERT_TRUE(R.Ran);
  EXPECT_TRUE(siteGraphsIsomorphic(R, 0, 1));
  EXPECT_TRUE(siteGraphsIsomorphic(R, 1, 0));
}

//===----------------------------------------------------------------------===//
// CEGIS integration: on/off agreement, audit, stats policy.
//===----------------------------------------------------------------------===//

TEST(Cegis, ShapeOnOffAgreeOnHeapSketchVerdict) {
  auto POn = buildHeapSketch();
  auto POff = buildHeapSketch();
  cegis::CegisConfig On;
  On.MaxIterations = 64;
  On.Shape = true;
  On.ShapeAudit = true;
  cegis::CegisConfig Off = On;
  Off.Shape = false;
  Off.ShapeAudit = false;

  cegis::ConcurrentCegis COn(*POn, On);
  cegis::CegisResult ROn = COn.run();
  cegis::ConcurrentCegis COff(*POff, Off);
  cegis::CegisResult ROff = COff.run();

  ASSERT_FALSE(ROn.Stats.Aborted);
  ASSERT_FALSE(ROff.Stats.Aborted);
  EXPECT_TRUE(ROn.Stats.Resolvable);
  EXPECT_EQ(ROn.Stats.Resolvable, ROff.Stats.Resolvable);
  EXPECT_EQ(ROn.Stats.ShapeFalsePrunes, 0u);
  // The resolving candidate is unique: a.val = 2, b.val = 3.
  EXPECT_EQ(ROn.Candidate, ROff.Candidate);
  // Stats observability: sites flow through only when the pass is on.
  EXPECT_EQ(ROn.Stats.ShapeSites, 2u);
  EXPECT_GE(ROn.Stats.MustNotAliasPairs, 1u);
  EXPECT_EQ(ROff.Stats.ShapeSites, 0u);
}

TEST(Cegis, CheckerStatsAccumulateMinWhereRan) {
  cegis::CegisStats Stats;
  verify::CheckResult C1;
  C1.ShapeSites = 4;
  C1.SiteIndepPairs = 10;
  cegis::accumulateCheckerStats(Stats, C1);
  EXPECT_EQ(Stats.ShapeSites, 4u);
  EXPECT_EQ(Stats.SiteIndepPairs, 10u);

  // A run where the partition did not engage must not reset the floor.
  verify::CheckResult C2;
  C2.ShapeSites = 0;
  C2.SiteIndepPairs = 0;
  cegis::accumulateCheckerStats(Stats, C2);
  EXPECT_EQ(Stats.ShapeSites, 4u);
  EXPECT_EQ(Stats.SiteIndepPairs, 10u);

  // Min per counter where the pass ran: a candidate with more sites but
  // fewer proven-independent pairs lowers only the pair floor.
  verify::CheckResult C3;
  C3.ShapeSites = 6;
  C3.SiteIndepPairs = 2;
  cegis::accumulateCheckerStats(Stats, C3);
  EXPECT_EQ(Stats.ShapeSites, 4u);
  EXPECT_EQ(Stats.SiteIndepPairs, 2u);
}
