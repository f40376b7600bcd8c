//===- tests/test_batch.cpp - batched frontier engine tests ----------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The batched-engine guarantees under test (verify/FrontierBatch.h,
// docs/BATCHING.md):
//  * hashWordsBatch (both the scalar twin and the dispatched kernel) is
//    element-wise bit-identical to hashWords over each gathered lane;
//  * canonicalizeBatch picks the same automorphism and produces the same
//    canonical words as scalar canonicalize on every lane;
//  * fingerprintBatchWith matches fingerprintWordsWith lane for lane,
//    for the builtin and a foreign hash, raw and packed keys;
//  * the footprint-class conflict matrix behind commutes and
//    singletonIndependent agrees with the footprint recompute, over
//    every pc pair in range, on plain and on lock- and heap-tuned
//    machines, fineset1 ar(aaaa|rrrr) included;
//  * scalar (BatchWidth=1) and batched (BatchWidth=16) checks agree on
//    verdict and byte-identical counterexample across suite rows,
//    candidates, POR modes, symmetry modes, search orders, and worker
//    counts.
//
//===----------------------------------------------------------------------===//

#include "analysis/AbsInt.h"
#include "benchmarks/Suite.h"
#include "desugar/Flatten.h"
#include "exec/StateVec.h"
#include "support/Hash.h"
#include "support/Rng.h"
#include "verify/Canon.h"
#include "verify/ModelChecker.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

using namespace psketch;
using namespace psketch::ir;
using namespace psketch::verify;

namespace {

/// Three identical threads increment a shared counter twice each under an
/// atomic section; the epilogue asserts the exact total. Fully symmetric,
/// so the canonicalizer accepts non-identity automorphisms.
void buildSymCounter(Program &P, unsigned Threads, int Count) {
  unsigned X = P.addGlobal("x", Type::Int, 0);
  for (unsigned T = 0; T < Threads; ++T) {
    unsigned Id = P.addThread("inc");
    BodyId B = BodyId::thread(Id);
    unsigned Tmp = P.addLocal(B, "tmp", Type::Int, 0);
    std::vector<StmtRef> Stmts;
    for (int I = 0; I < Count; ++I) {
      StmtRef Read = P.assign(P.locLocal(Tmp), P.global(X));
      StmtRef Write = P.assign(
          P.locGlobal(X), P.add(P.local(Tmp, Type::Int), P.constInt(1)));
      Stmts.push_back(P.atomic(P.seq({Read, Write})));
    }
    P.setRoot(B, P.seq(std::move(Stmts)));
  }
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(static_cast<int>(
                                            Threads * Count))),
                      "total"));
}

/// The lightest entry of one suite family (by cost class).
std::optional<bench::SuiteEntry> lightestRow(const std::string &Family) {
  auto Entries = bench::paperSuite(Family);
  if (Entries.empty())
    return std::nullopt;
  size_t Best = 0;
  for (size_t I = 1; I < Entries.size(); ++I)
    if (Entries[I].CostClass < Entries[Best].CostClass)
      Best = I;
  return Entries[Best];
}

/// Collects \p Want distinct-ish states by random walk from the initial
/// state (the walk restarts when a step reports anything but Ok).
std::vector<exec::State> randomWalkStates(const exec::Machine &M,
                                          unsigned Want, uint64_t Seed) {
  std::vector<exec::State> Out;
  Rng R(Seed);
  exec::State S = M.initialState();
  while (Out.size() < Want) {
    unsigned Ctx = static_cast<unsigned>(R.below(M.numContexts()));
    exec::Violation V;
    exec::ExecOutcome O = M.execStep(S, Ctx, V);
    if (O.Result != exec::StepResult::Ok) {
      S = M.initialState();
      continue;
    }
    Out.push_back(S);
  }
  return Out;
}

uint64_t altHash(const int64_t *W, size_t N) {
  uint64_t H = 0x1234567899ull ^ N;
  for (size_t I = 0; I < N; ++I)
    H = mix64(H ^ (static_cast<uint64_t>(W[I]) * 0x100000001b3ull));
  return H;
}

void expectSameCex(const CheckResult &A, const CheckResult &B,
                   const std::string &Tag) {
  ASSERT_EQ(A.Cex.has_value(), B.Cex.has_value()) << Tag;
  if (!A.Cex)
    return;
  ASSERT_EQ(A.Cex->Steps.size(), B.Cex->Steps.size()) << Tag;
  for (size_t I = 0; I < A.Cex->Steps.size(); ++I)
    EXPECT_TRUE(A.Cex->Steps[I] == B.Cex->Steps[I]) << Tag << " step " << I;
  EXPECT_EQ(A.Cex->V.Label, B.Cex->V.Label) << Tag;
}

} // namespace

//===----------------------------------------------------------------------===//
// Kernel-level identities.
//===----------------------------------------------------------------------===//

TEST(BatchHash, ScalarTwinAndDispatchMatchHashWords) {
  Rng R(0xBA7C4ull);
  for (size_t NWords : {0u, 1u, 3u, 8u, 17u}) {
    for (size_t Lanes : {1u, 2u, 4u, 5u, 16u}) {
      for (size_t Stride : {Lanes, Lanes + 3}) {
        // Word-major block: word I of lane K at Block[I * Stride + K].
        std::vector<int64_t> Block(NWords * Stride + 1, 0);
        for (int64_t &W : Block)
          W = static_cast<int64_t>(R.next());
        std::vector<uint64_t> Twin(Lanes, 0), Simd(Lanes, 0);
        hashdetail::hashWordsBatchScalar(Block.data(), NWords, Lanes, Stride,
                                     Twin.data());
        hashWordsBatch(Block.data(), NWords, Lanes, Stride, Simd.data());
        for (size_t K = 0; K < Lanes; ++K) {
          std::vector<int64_t> Lane(NWords);
          for (size_t I = 0; I < NWords; ++I)
            Lane[I] = Block[I * Stride + K];
          uint64_t Want = hashWords(Lane.data(), NWords);
          EXPECT_EQ(Twin[K], Want) << "scalar twin lane " << K;
          EXPECT_EQ(Simd[K], Want)
              << "dispatched (" << simdMode() << ") lane " << K;
        }
      }
    }
  }
}

TEST(BatchHash, PtrKernelMatchesHashWords) {
  Rng R(0xBA7C5ull);
  for (size_t NWords : {0u, 1u, 3u, 8u, 17u, 126u}) {
    for (size_t Lanes : {1u, 2u, 4u, 5u, 16u, 21u}) {
      // Independent AoS lanes, deliberately not contiguous.
      std::vector<std::vector<int64_t>> Data(Lanes);
      std::vector<const int64_t *> Ptrs(Lanes);
      for (size_t K = 0; K < Lanes; ++K) {
        Data[K].resize(NWords + 1, 0);
        for (int64_t &W : Data[K])
          W = static_cast<int64_t>(R.next());
        Ptrs[K] = Data[K].data();
      }
      std::vector<uint64_t> Out(Lanes, 0);
      hashWordsBatchPtrs(Ptrs.data(), NWords, Lanes, Out.data());
      for (size_t K = 0; K < Lanes; ++K)
        EXPECT_EQ(Out[K], hashWords(Ptrs[K], NWords))
            << "ptr kernel (" << simdMode() << ") lane " << K << " words "
            << NWords;
    }
  }
}

TEST(BatchCanon, CanonicalizeBatchMatchesScalar) {
  Program P;
  buildSymCounter(P, 3, 2);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  Canonicalizer Canon(M);
  ASSERT_TRUE(Canon.active()) << "symmetric program must admit orbits";

  const unsigned Lanes = 13;
  std::vector<exec::State> States = randomWalkStates(M, Lanes, 0xC0DEull);
  exec::SchedBlock In, Out;
  In.reset(M.schedWords(), Lanes);
  for (unsigned K = 0; K < Lanes; ++K)
    In.setLane(K, States[K].words());

  std::vector<unsigned> Perm(Lanes, 0);
  Canon.canonicalizeBatch(In, Lanes, Out, Perm.data());

  std::vector<int64_t> Got(M.schedWords());
  for (unsigned K = 0; K < Lanes; ++K) {
    unsigned ScalarPerm = 0;
    const int64_t *Want = Canon.canonicalize(States[K].words(), ScalarPerm);
    EXPECT_EQ(Perm[K], ScalarPerm) << "lane " << K;
    Out.gatherLane(K, Got.data());
    for (unsigned I = 0; I < M.schedWords(); ++I)
      EXPECT_EQ(Got[I], Want[I]) << "lane " << K << " word " << I;
  }
}

TEST(BatchFingerprint, MatchesScalarRawAndPacked) {
  Program P;
  buildSymCounter(P, 2, 2);
  flat::FlatProgram FP = flat::flatten(P);
  HoleAssignment C(P.holes().size(), 0);
  exec::Machine Raw(FP, C);

  // A packed twin via deliberately absurd bounds (claiming every global
  // is constant 0): packing stays sound through the escape hatch, and
  // the batched fingerprint must gather, not take the SIMD fast path.
  exec::ValueBounds Lies;
  for (unsigned G = 0; G < Raw.globalSlots(); ++G)
    Lies.GlobalSlots.push_back({0, 0});
  exec::State Shape = Raw.initialState();
  Lies.Locals.resize(Raw.numContexts());
  for (unsigned Ctx = 0; Ctx < Raw.numContexts(); ++Ctx)
    Lies.Locals[Ctx].resize(Shape.numLocals(Ctx), {0, 0});
  exec::MachineTuning Tuning;
  Tuning.Bounds = &Lies;
  exec::Machine Packed(FP, C, Tuning);
  ASSERT_TRUE(Packed.packedLayout().Enabled);

  const unsigned Lanes = 9;
  std::vector<exec::State> States = randomWalkStates(Raw, Lanes, 0xF1F0ull);
  exec::SchedBlock B;
  B.reset(Raw.schedWords(), Lanes);
  for (unsigned K = 0; K < Lanes; ++K)
    B.setLane(K, States[K].words());

  std::vector<uint64_t> Out(Lanes, 0);
  for (const exec::Machine *M : {&Raw, &Packed}) {
    for (auto Hash : {&hashWords, &altHash}) {
      M->fingerprintBatchWith(B, Lanes, Hash, Out.data());
      for (unsigned K = 0; K < Lanes; ++K)
        EXPECT_EQ(Out[K], M->fingerprintWordsWith(States[K].words(), Hash))
            << (M == &Raw ? "raw" : "packed") << " lane " << K;
    }
  }

  // The pointer entry point must agree lane for lane too (raw layouts
  // take the register-transposing SIMD kernel, packed ones the scalar
  // escape-aware path).
  std::vector<const int64_t *> Ptrs(Lanes);
  for (unsigned K = 0; K < Lanes; ++K)
    Ptrs[K] = States[K].words();
  for (const exec::Machine *M : {&Raw, &Packed}) {
    for (auto Hash : {&hashWords, &altHash}) {
      M->fingerprintBatchPtrsWith(Ptrs.data(), Lanes, Hash, Out.data());
      for (unsigned K = 0; K < Lanes; ++K)
        EXPECT_EQ(Out[K], M->fingerprintWordsWith(States[K].words(), Hash))
            << "ptrs " << (M == &Raw ? "raw" : "packed") << " lane " << K;
    }
  }
}

namespace {

/// Checks both cached relations against the footprint recompute: commutes
/// over every context pair (thread pairs read the tables, the rest fall
/// back) and singletonIndependent over random reachable states.
void expectRelationsMatchFootprints(const exec::Machine &M,
                                    const std::string &Tag) {
  // Beyond-range pcs exercise the sentinel-row clamping on both sides.
  const uint32_t PcProbe = 24;
  for (unsigned A = 0; A < M.numContexts(); ++A)
    for (unsigned B = 0; B < M.numContexts(); ++B)
      for (uint32_t Pa = 0; Pa < PcProbe; ++Pa)
        for (uint32_t Pb = 0; Pb < PcProbe; ++Pb)
          EXPECT_EQ(M.commutes(A, Pa, B, Pb),
                    !M.stepFootprint(A, Pa).conflictsWithUnprotected(
                        M.stepFootprint(B, Pb)))
              << Tag << ": " << A << "@" << Pa << " vs " << B << "@" << Pb;

  for (const exec::State &Walked : randomWalkStates(M, 64, 0x7AB1Eull)) {
    for (unsigned Ctx = 0; Ctx < M.numThreads(); ++Ctx) {
      exec::State S = Walked;
      bool Want = true;
      uint32_t Pc = M.normalizePc(S, Ctx);
      for (unsigned U = 0; U < M.numThreads(); ++U)
        if (U != Ctx && M.stepFootprint(Ctx, Pc).conflictsWithUnprotected(
                            M.suffixFootprint(U, S.pc(U))))
          Want = false;
      EXPECT_EQ(M.singletonIndependent(S, Ctx), Want)
          << Tag << ": ctx " << Ctx << " at pc " << Pc;
    }
  }
}

} // namespace

TEST(BatchTables, CommuteTableMatchesFootprintRecompute) {
  auto Row = lightestRow("barrier1");
  ASSERT_TRUE(Row.has_value());
  auto P = Row->Build();
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, ir::HoleAssignment(P->holes().size(), 0));
  expectRelationsMatchFootprints(M, "barrier1");

  // Tuned machines rewrite the footprints (protectedBy masks, per-site
  // heap bits) before the tables are built; the tables must cache the
  // rewritten relation.
  bool SawLocks = false, SawSites = false;
  for (const char *FamilyName : {"lazyset", "fineset1", "dinphilo"}) {
    std::string Family = FamilyName;
    auto Tuned = lightestRow(Family);
    ASSERT_TRUE(Tuned.has_value()) << Family;
    auto TP = Tuned->Build();
    flat::FlatProgram TFP = flat::flatten(*TP);
    ir::HoleAssignment Ref = Tuned->Reference
                                 ? Tuned->Reference(*TP)
                                 : ir::HoleAssignment(TP->holes().size(), 0);
    analysis::CandidateFacts Facts = analysis::analyzeCandidate(*TP, TFP, Ref);
    ASSERT_FALSE(Facts.Refuted) << Family;
    exec::MachineTuning Tuning;
    Tuning.Locks = &Facts.Locks;
    if (!Facts.Heap.empty())
      Tuning.Heap = &Facts.Heap;
    exec::Machine TM(TFP, Ref, Tuning);
    SawLocks = SawLocks || TM.lockIndepPairs() > 0;
    SawSites = SawSites || TM.shapeSites() > 0;
    expectRelationsMatchFootprints(TM, Family + "/tuned");
  }
  EXPECT_TRUE(SawLocks) << "no row exercised lock-discounted footprints";
  EXPECT_TRUE(SawSites) << "no row exercised the heap partition";

  // The heaviest table build of the suite: four adds racing four
  // removes over the fine-grained set, plain and tuned.
  std::optional<bench::SuiteEntry> Wide;
  for (const bench::SuiteEntry &E : bench::paperSuite("fineset1"))
    if (E.Test == "ar(aaaa|rrrr)")
      Wide = E;
  ASSERT_TRUE(Wide.has_value());
  auto WP = Wide->Build();
  flat::FlatProgram WFP = flat::flatten(*WP);
  ir::HoleAssignment WRef = Wide->Reference
                                ? Wide->Reference(*WP)
                                : ir::HoleAssignment(WP->holes().size(), 0);
  exec::Machine WM(WFP, WRef);
  expectRelationsMatchFootprints(WM, "fineset1 ar(aaaa|rrrr)");
  analysis::CandidateFacts WFacts = analysis::analyzeCandidate(*WP, WFP, WRef);
  ASSERT_FALSE(WFacts.Refuted);
  exec::MachineTuning WTuning;
  WTuning.Locks = &WFacts.Locks;
  if (!WFacts.Heap.empty())
    WTuning.Heap = &WFacts.Heap;
  exec::Machine WTM(WFP, WRef, WTuning);
  expectRelationsMatchFootprints(WTM, "fineset1 ar(aaaa|rrrr)/tuned");
}

//===----------------------------------------------------------------------===//
// Whole-engine agreement: scalar vs batched.
//===----------------------------------------------------------------------===//

TEST(BatchEngine, SuiteAgreementAcrossModes) {
  std::vector<std::string> Families = {"barrier1", "dinphilo", "queue"};
  for (const std::string &Family : Families) {
    auto Row = lightestRow(Family);
    if (!Row)
      continue;
    auto P = Row->Build();
    flat::FlatProgram FP = flat::flatten(*P);
    ir::HoleAssignment Ref = Row->Reference
                                 ? Row->Reference(*P)
                                 : ir::HoleAssignment(P->holes().size(), 0);
    ir::HoleAssignment Zero(P->holes().size(), 0);
    for (const ir::HoleAssignment *A : {&Ref, &Zero}) {
      exec::Machine M(FP, *A);
      for (PorMode Por : {PorMode::Off, PorMode::Ample}) {
        for (SymmetryMode Sym : {SymmetryMode::Off, SymmetryMode::Orbit}) {
          CheckerConfig Cfg;
          Cfg.Por = Por;
          Cfg.Symmetry = Sym;
          Cfg.BatchWidth = 1;
          CheckResult RS = checkCandidate(M, Cfg);
          Cfg.BatchWidth = DefaultBatchWidth;
          CheckResult RB = checkCandidate(M, Cfg);
          std::string Tag = Family + (A == &Ref ? "/ref" : "/zero") +
                            (Por == PorMode::Ample ? "/ample" : "/off") +
                            (Sym == SymmetryMode::Orbit ? "/sym" : "/nosym");
          EXPECT_EQ(RS.Ok, RB.Ok) << Tag;
          expectSameCex(RS, RB, Tag);
        }
      }
    }
  }
}

TEST(BatchEngine, BfsAgreement) {
  Program P;
  buildSymCounter(P, 3, 1);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  for (PorMode Por : {PorMode::Off, PorMode::Local}) {
    CheckerConfig Cfg;
    Cfg.Order = SearchOrder::Bfs;
    Cfg.Por = Por;
    Cfg.BatchWidth = 1;
    CheckResult RS = checkCandidate(M, Cfg);
    Cfg.BatchWidth = DefaultBatchWidth;
    CheckResult RB = checkCandidate(M, Cfg);
    EXPECT_EQ(RS.Ok, RB.Ok);
    EXPECT_EQ(RS.StatesExplored, RB.StatesExplored)
        << "BFS without sleep sets explores the same set";
    expectSameCex(RS, RB, "bfs");
  }
}

TEST(BatchEngine, ParallelAgreement) {
  auto Row = lightestRow("barrier1");
  ASSERT_TRUE(Row.has_value());
  auto P = Row->Build();
  flat::FlatProgram FP = flat::flatten(*P);
  ir::HoleAssignment Zero(P->holes().size(), 0);
  exec::Machine M(FP, Zero);
  for (unsigned W : {2u, 4u}) {
    for (PorMode Por : {PorMode::Off, PorMode::Ample}) {
      CheckerConfig Cfg;
      Cfg.NumThreads = W;
      Cfg.Por = Por;
      Cfg.BatchWidth = 1;
      CheckResult RS = checkCandidate(M, Cfg);
      Cfg.BatchWidth = DefaultBatchWidth;
      CheckResult RB = checkCandidate(M, Cfg);
      std::string Tag = "W=" + std::to_string(W) +
                        (Por == PorMode::Ample ? "/ample" : "/off");
      EXPECT_EQ(RS.Ok, RB.Ok) << Tag;
      expectSameCex(RS, RB, Tag);
    }
  }
}
