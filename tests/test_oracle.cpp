//===- tests/test_oracle.cpp - the checker's differential oracle -----------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// CEGIS takes every counterexample the checker reports as ground truth,
// so every engine and reduction must keep the checker exact. This file is
// the one place that checks it. Each subject is checked in every cell of
// a config lattice:
//  * Por Off/Local/Ample x Symmetry Off/Orbit x W in {1, 4}, DFS;
//  * the same for BFS, which always runs one worker: its W = 4 cells
//    must report W = 1's worker count, counts and counterexample;
//  * the DFS cells again on the analysis-tuned Machine CEGIS builds
//    (interval bounds, locks and heap partition).
// The reference cell is the plain Machine, Por Local, Symmetry Off,
// W = 1, DFS. Every cell must
//  * reach the reference verdict (a cell where either side hit MaxStates
//    is skipped: its Ok only holds up to the budget);
//  * report a byte-identical counterexample and the same RandomRunsUsed
//    as its own reference: the plain, Symmetry Off, W = 1 cell of the
//    same order, under Por Off for Por Off cells (the falsifier draws
//    differently when nothing is auto-advanced) and under Local
//    otherwise;
//  * report a counterexample that replays on a fresh Machine.
// Across cells:
//  * clean W = 1 cells under Por Off/Local report the same StatesExplored
//    and StatesDeduped in DFS (the undo-log core) and in BFS, which
//    copies every node's state and so shares no undo logic with it;
//  * the plain and the tuned Machine report the same counts under Por
//    Off and Local, where the tuned footprints play no part and packed
//    keys are injective.
// And when the symmetry inference accepts a subject, its Orbit keys must
// merge exactly the states that an accepted thread permutation relates,
// with the orbits computed by running renamed schedules.
// Subjects:
//  * the lightest row of every Figure 9 family and the DList i(i|i) row:
//    reference, all-zero and one seeded random candidate, with the
//    falsifier off (every cell runs its exhaustive phase) and, on a
//    failing candidate, on;
//  * every Figure 9 row's reference and all-zero candidate under the
//    default config, W = 4 against W = 1;
//  * random two-thread programs, half of them with both threads running
//    the same body so that Orbit canonicalizes, whose verdict must also
//    match a brute-force enumeration of every interleaving, and a second
//    seed stream of them checked by BFS alone under the default config.
//
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

#include "analysis/AbsInt.h"
#include "benchmarks/DList.h"
#include "benchmarks/Workload.h"
#include "desugar/Flatten.h"
#include "verify/Canon.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace psketch;
using namespace psketch::ir;
using namespace psketch::verify;
using psketch::test::expectReplays;
using psketch::test::expectSameCex;
using psketch::test::lightestRow;
using psketch::test::randomAssignment;

namespace {

const char *const Families[] = {"queueE1",  "queueDE1", "queueE2",
                                "queueDE2", "barrier1", "barrier2",
                                "fineset1", "fineset2", "lazyset",
                                "dinphilo"};

//===----------------------------------------------------------------------===//
// Orbit keys: the symmetry reduction merges exactly isomorphic states.
//===----------------------------------------------------------------------===//

/// Orbit cells dedup states by their Canonicalizer image; this checks the
/// images against orbits computed by execution alone. States are sampled
/// after each step of random schedules from the post-prologue state,
/// which every accepted permutation fixes, so running a schedule with its
/// threads renamed by a permutation reaches that permutation's image of
/// the state. Each sampled state must share its image with every such
/// renamed run's state, and with no other sampled state: an image that
/// merged non-isomorphic states could prune the only path to a violation,
/// and the verdict cells would catch that only by luck.
void expectCanonMergesExactlyOrbits(const exec::Machine &M,
                                    const std::string &Name) {
  Canonicalizer C(M);
  if (!C.active())
    return;
  const unsigned SW = M.schedWords();
  exec::State Init = M.initialState();
  exec::Violation V;
  if (!M.runToCompletion(Init, M.prologueCtx(), V))
    return;
  auto ImageOf = [&](const exec::State &S) {
    unsigned Perm = Canonicalizer::IdentityPerm;
    const int64_t *Image = C.canonicalize(S.words(), Perm);
    return std::vector<int64_t>(Image, Image + SW);
  };
  auto WordsOf = [&](const exec::State &S) {
    return std::vector<int64_t>(S.words(), S.words() + SW);
  };

  struct Sample {
    std::vector<int64_t> Words, Image;
    std::vector<std::vector<int64_t>> Orbit; ///< the renamed runs' states
  };
  std::vector<Sample> Samples;
  Rng R(0x0B17ull);
  for (int Run = 0; Run < 8; ++Run) {
    exec::State S = Init;
    std::vector<unsigned> Schedule;
    for (int Step = 0; Step < 12; ++Step) {
      auto Ctx = static_cast<unsigned>(R.below(M.numThreads()));
      exec::StepResult Res = M.execStep(S, Ctx, V).Result;
      if (Res == exec::StepResult::Violated)
        break;
      Schedule.push_back(Ctx); // blocked attempts normalize pcs too
      if (Res != exec::StepResult::Ok)
        continue;
      Sample Smp{WordsOf(S), ImageOf(S), {}};
      for (unsigned P = 0; P < C.numPerms(); ++P) {
        const std::vector<unsigned> &CtxMap = C.plan().Perms[P].CtxMap;
        exec::State T = Init;
        for (unsigned U : Schedule)
          M.execStep(T, CtxMap[U], V);
        EXPECT_TRUE(ImageOf(T) == Smp.Image)
            << Name << ": run " << Run << " step " << Step << " perm " << P
            << " changes the image";
        Smp.Orbit.push_back(WordsOf(T));
      }
      Samples.push_back(std::move(Smp));
    }
  }
  for (size_t I = 0; I < Samples.size(); ++I)
    for (size_t J = I + 1; J < Samples.size(); ++J) {
      const Sample &A = Samples[I], &B = Samples[J];
      bool Related =
          A.Words == B.Words ||
          std::find(A.Orbit.begin(), A.Orbit.end(), B.Words) != A.Orbit.end();
      EXPECT_EQ(A.Image == B.Image, Related)
          << Name << ": sampled states " << I << " and " << J;
    }
}

//===----------------------------------------------------------------------===//
// The lattice.
//===----------------------------------------------------------------------===//

/// One lattice cell and what the checker reported in it.
struct Cell {
  bool Tuned = false;
  SearchOrder Order = SearchOrder::Dfs;
  PorMode Por = PorMode::Local;
  SymmetryMode Sym = SymmetryMode::Off;
  unsigned W = 1;
  bool Skipped = false; ///< not run: the Por Off reference hit MaxStates
  CheckResult R;

  /// True when the cell carries no agreement promise: it was skipped or
  /// hit MaxStates, so its Ok only holds up to the budget.
  bool capped() const { return Skipped || R.Exhausted; }

  std::string tag() const {
    static const char *const PorNames[] = {"off", "local", "ample"};
    return std::string(Tuned ? "tuned" : "plain") +
           (Order == SearchOrder::Bfs ? " bfs" : " dfs") + " por=" +
           PorNames[static_cast<int>(Por)] +
           (Sym == SymmetryMode::Orbit ? " sym=orbit" : " sym=off") +
           " W=" + std::to_string(W);
  }
};

/// Checks \p Plain (and \p Tuned, when given, in the DFS cells) in
/// every lattice cell, each under \p Base with the cell's order, Por,
/// Symmetry and workers. The first cell is the Por Off reference; when it
/// hits MaxStates, the other Por Off cells are skipped, since their
/// unreduced searches would only hit the budget too.
std::vector<Cell> runLattice(const exec::Machine &Plain,
                             const exec::Machine *Tuned,
                             const CheckerConfig &Base) {
  std::vector<Cell> Cells;
  bool OffCapped = false;
  for (bool T : {false, true}) {
    if (T && !Tuned)
      continue;
    for (SearchOrder Order : {SearchOrder::Dfs, SearchOrder::Bfs})
      for (PorMode Por : {PorMode::Off, PorMode::Local, PorMode::Ample})
        for (SymmetryMode Sym : {SymmetryMode::Off, SymmetryMode::Orbit})
          for (unsigned W : {1u, 4u}) {
            // BFS runs on the plain Machine only.
            if (Order == SearchOrder::Bfs && T)
              continue;
            Cell C;
            C.Tuned = T;
            C.Order = Order;
            C.Por = Por;
            C.Sym = Sym;
            C.W = W;
            if (Por == PorMode::Off && OffCapped) {
              C.Skipped = true;
            } else {
              CheckerConfig Cfg = Base;
              Cfg.Order = Order;
              Cfg.Por = Por;
              Cfg.Symmetry = Sym;
              Cfg.NumThreads = W;
              C.R = checkCandidate(T ? *Tuned : Plain, Cfg);
              if (Cells.empty())
                OffCapped = C.R.Exhausted;
            }
            Cells.push_back(std::move(C));
          }
  }
  return Cells;
}

const Cell &findCell(const std::vector<Cell> &Cells, bool Tuned,
                     SearchOrder Order, PorMode Por, SymmetryMode Sym,
                     unsigned W) {
  for (const Cell &C : Cells)
    if (C.Tuned == Tuned && C.Order == Order && C.Por == Por &&
        C.Sym == Sym && C.W == W)
      return C;
  ADD_FAILURE() << "no such lattice cell";
  return Cells.front();
}

/// The reference cell: plain Machine, Por Local, Symmetry Off, W = 1,
/// DFS.
const Cell &referenceCell(const std::vector<Cell> &Cells) {
  return findCell(Cells, false, SearchOrder::Dfs, PorMode::Local,
                  SymmetryMode::Off, 1);
}

void expectSameCounts(const CheckResult &A, const CheckResult &B,
                      const std::string &Tag) {
  EXPECT_EQ(A.StatesExplored, B.StatesExplored) << Tag;
  EXPECT_EQ(A.StatesDeduped, B.StatesDeduped) << Tag;
}

/// Asserts every per-cell and cross-cell property of the file comment on
/// \p Cells. \p Fresh is a Machine of the same candidate that no check
/// ran on; \p Truth, when known, is the brute-force verdict.
void expectLatticeAgrees(const std::vector<Cell> &Cells,
                         const exec::Machine &Fresh, const std::string &Name,
                         std::optional<bool> Truth = std::nullopt) {
  const Cell &Ref = referenceCell(Cells);
  if (Truth && !Ref.capped()) {
    EXPECT_EQ(Ref.R.Ok, *Truth) << Name << " reference vs brute force";
  }
  for (const Cell &C : Cells) {
    std::string Tag = Name + " " + C.tag();
    if (C.R.Cex)
      expectReplays(Fresh, *C.R.Cex, Tag);
    if (C.capped() || Ref.capped())
      continue;
    EXPECT_EQ(C.R.Ok, Ref.R.Ok) << Tag;
    const Cell &CexRef =
        findCell(Cells, false, C.Order,
                 C.Por == PorMode::Off ? PorMode::Off : PorMode::Local,
                 SymmetryMode::Off, 1);
    if (CexRef.capped())
      continue;
    EXPECT_EQ(C.R.RandomRunsUsed, CexRef.R.RandomRunsUsed) << Tag;
    expectSameCex(C.R, CexRef.R, Tag);
  }

  for (const Cell &C : Cells) {
    if (C.capped())
      continue;
    std::string Tag = Name + " " + C.tag();
    if (C.W != 1) {
      if (C.Order == SearchOrder::Bfs) {
        const Cell &One =
            findCell(Cells, false, SearchOrder::Bfs, C.Por, C.Sym, 1);
        EXPECT_EQ(C.R.WorkersUsed, 1u) << Tag;
        if (!One.capped()) {
          expectSameCounts(C.R, One.R, Tag + " vs W=1");
          expectSameCex(C.R, One.R, Tag + " vs W=1");
        }
      }
      continue;
    }
    if (C.Order == SearchOrder::Bfs && C.Por != PorMode::Ample && C.R.Ok) {
      const Cell &Dfs = findCell(Cells, C.Tuned, SearchOrder::Dfs, C.Por,
                                 C.Sym, 1);
      if (Dfs.R.Ok && !Dfs.capped())
        expectSameCounts(C.R, Dfs.R, Tag + " vs dfs");
    }
    if (C.Tuned && C.Por != PorMode::Ample) {
      const Cell &Plain = findCell(Cells, false, C.Order, C.Por, C.Sym, 1);
      if (!Plain.capped())
        expectSameCounts(C.R, Plain.R, Tag + " vs plain");
    }
  }
}

/// Runs the lattice on every candidate of \p P with the falsifier off,
/// so every cell runs its exhaustive phase; and, on a failing candidate,
/// again with the falsifier on. (On a clean one the falsifier only adds
/// the same clean random runs to every cell.) The tuned Machine is built
/// as CEGIS builds it; a candidate the interval screen refutes has none,
/// because CEGIS never checks one.
void expectRowAgrees(const std::string &Name, Program &P,
                     const std::vector<HoleAssignment> &Candidates) {
  flat::FlatProgram FP = flat::flatten(P);
  for (size_t CI = 0; CI < Candidates.size(); ++CI) {
    const HoleAssignment &A = Candidates[CI];
    analysis::CandidateFacts Facts = analysis::analyzeCandidate(P, FP, A);
    exec::MachineTuning Tuning;
    Tuning.Locks = &Facts.Locks;
    Tuning.Bounds = &Facts.Bounds;
    if (!Facts.Heap.empty())
      Tuning.Heap = &Facts.Heap;
    exec::Machine Plain(FP, A), Fresh(FP, A);
    std::optional<exec::Machine> Tuned;
    if (!Facts.Refuted)
      Tuned.emplace(FP, A, Tuning);
    std::string Tag = Name + " candidate " + std::to_string(CI);
    expectCanonMergesExactlyOrbits(Plain, Tag);
    CheckerConfig Base;
    Base.MaxStates = 10000; // caps the unreduced Por Off searches
    for (bool Falsifier : {false, true}) {
      Base.UseRandomFalsifier = Falsifier;
      std::vector<Cell> Cells =
          runLattice(Plain, Tuned ? &*Tuned : nullptr, Base);
      expectLatticeAgrees(Cells, Fresh,
                          Tag + (Falsifier ? " falsifier" : " exhaustive"));
      if (referenceCell(Cells).R.Ok)
        break;
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// The lightest row of every Figure 9 family, and the DList row.
//===----------------------------------------------------------------------===//

class LightestRowOracle : public ::testing::TestWithParam<const char *> {};

TEST_P(LightestRowOracle, LatticeAgreesWithReference) {
  std::string Family = GetParam();
  auto E = lightestRow(Family);
  ASSERT_TRUE(E.has_value()) << Family;
  auto P = E->Build();
  Rng R(0x0AC1Eull);
  std::vector<HoleAssignment> Candidates;
  if (E->Reference)
    Candidates.push_back(E->Reference(*P));
  Candidates.push_back(HoleAssignment(P->holes().size(), 0));
  Candidates.push_back(randomAssignment(*P, R));
  expectRowAgrees(E->Sketch + " " + E->Test, *P, Candidates);
}

INSTANTIATE_TEST_SUITE_P(Figure9, LightestRowOracle,
                         ::testing::ValuesIn(Families));

TEST(Oracle, DListRowLatticeAgreesWithReference) {
  // The linked-list insert row: the heap partition's main customer.
  bench::DListOptions O;
  auto P = bench::buildDList(bench::parseWorkload("i(i|i)"), O);
  Rng R(0xD1157ull);
  expectRowAgrees("DList i(i|i)", *P,
                  {bench::dlistReferenceCandidate(*P, O),
                   HoleAssignment(P->holes().size(), 0),
                   randomAssignment(*P, R)});
}

//===----------------------------------------------------------------------===//
// Every Figure 9 row under the default config: four workers report what
// one reports.
//===----------------------------------------------------------------------===//

class Figure9WorkerOracle : public ::testing::TestWithParam<const char *> {};

TEST_P(Figure9WorkerOracle, FourWorkersMatchOne) {
  // Verdict, falsifier run count and counterexample are functions of the
  // config alone (the ModelChecker.h reproducibility contract), on every
  // row's reference and all-zero candidate, with the falsifier, Ample
  // and Orbit all on.
  for (const bench::SuiteEntry &E : bench::paperSuite(GetParam())) {
    auto P = E.Build();
    flat::FlatProgram FP = flat::flatten(*P);
    std::vector<HoleAssignment> Candidates;
    if (E.Reference)
      Candidates.push_back(E.Reference(*P));
    Candidates.push_back(HoleAssignment(P->holes().size(), 0));
    for (size_t CI = 0; CI < Candidates.size(); ++CI) {
      exec::Machine M(FP, Candidates[CI]);
      CheckerConfig One;
      CheckerConfig Four = One;
      Four.NumThreads = 4;
      CheckResult R1 = checkCandidate(M, One);
      CheckResult R4 = checkCandidate(M, Four);
      std::string Tag =
          E.Sketch + " " + E.Test + " candidate " + std::to_string(CI);
      ASSERT_FALSE(R1.Exhausted) << Tag;
      ASSERT_FALSE(R4.Exhausted) << Tag;
      EXPECT_EQ(R4.Ok, R1.Ok) << Tag;
      EXPECT_EQ(R4.RandomRunsUsed, R1.RandomRunsUsed) << Tag;
      expectSameCex(R4, R1, Tag);
      if (R4.Cex)
        expectReplays(exec::Machine(FP, Candidates[CI]), *R4.Cex, Tag);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Figure9, Figure9WorkerOracle,
                         ::testing::ValuesIn(Families));

//===----------------------------------------------------------------------===//
// Random two-thread programs against brute force.
//===----------------------------------------------------------------------===//

namespace {

/// Builds a random 2-thread straight-line program over two globals with a
/// random epilogue assertion. \p Symmetric gives both threads the same
/// body, so the symmetry inference proves their swap and the Orbit cells
/// canonicalize.
void buildRandomProgram(Program &P, Rng &R, bool Symmetric) {
  unsigned G[2] = {P.addGlobal("g0", Type::Int, 0),
                   P.addGlobal("g1", Type::Int, 0)};
  Rng Mirror = R; // replays thread 0's draws for a symmetric thread 1
  for (int T = 0; T < 2; ++T) {
    Rng &D = T == 1 && Symmetric ? Mirror : R;
    unsigned Id = P.addThread("t");
    BodyId B = BodyId::thread(Id);
    unsigned L = P.addLocal(B, "l", Type::Int, 0);
    std::vector<StmtRef> Stmts;
    int Steps = 2 + static_cast<int>(D.below(3));
    for (int I = 0; I < Steps; ++I) {
      unsigned Target = static_cast<unsigned>(D.below(2));
      switch (D.below(4)) {
      case 0: // constant store
        Stmts.push_back(P.assign(P.locGlobal(G[Target]),
                                 P.constInt(static_cast<int64_t>(D.below(4)))));
        break;
      case 1: // read into the local
        Stmts.push_back(P.assign(P.locLocal(L), P.global(G[Target])));
        break;
      case 2: // increment via the local (racy)
        Stmts.push_back(P.assign(P.locGlobal(G[Target]),
                                 P.add(P.local(L, Type::Int), P.constInt(1))));
        break;
      default: // atomic increment
        Stmts.push_back(P.atomic(P.assign(
            P.locGlobal(G[Target]),
            P.add(P.global(G[Target]), P.constInt(1)))));
        break;
      }
    }
    P.setRoot(B, P.seq(std::move(Stmts)));
  }
  unsigned Which = static_cast<unsigned>(R.below(2));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.ne(P.global(G[Which]),
                           P.constInt(static_cast<int64_t>(R.below(5)))),
                      "random property"));
}

/// Brute force: recursively explores every interleaving, no dedup/POR.
bool oracleExplore(const exec::Machine &M, exec::State S) {
  bool AnyRan = false;
  for (unsigned T = 0; T < M.numThreads(); ++T) {
    exec::State Next = S;
    exec::Violation V;
    exec::ExecOutcome Out = M.execStep(Next, T, V);
    if (Out.Result == exec::StepResult::Finished)
      continue;
    AnyRan = true;
    if (Out.Result == exec::StepResult::Violated)
      return false;
    if (Out.Result == exec::StepResult::Blocked)
      continue;
    if (!oracleExplore(M, std::move(Next)))
      return false;
  }
  if (!AnyRan) {
    // All threads finished (these programs never block): run the epilogue.
    exec::Violation V;
    return M.runToCompletion(S, M.epilogueCtx(), V);
  }
  return true;
}

} // namespace

class CheckerOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(CheckerOracleTest, AgreesWithBruteForce) {
  Rng R(static_cast<uint64_t>(GetParam()) * 65537 + 3);
  for (int Iter = 0; Iter < 40; ++Iter) {
    Program P;
    buildRandomProgram(P, R, /*Symmetric=*/Iter % 2 == 1);
    flat::FlatProgram FP = flat::flatten(P);
    exec::Machine M(FP, {}), Fresh(FP, {});
    bool Truth = oracleExplore(M, M.initialState());
    std::string Tag =
        "seed " + std::to_string(GetParam()) + " iter " + std::to_string(Iter);
    expectCanonMergesExactlyOrbits(M, Tag);
    CheckerConfig Base;
    for (bool Falsifier : {false, true}) {
      Base.UseRandomFalsifier = Falsifier;
      std::vector<Cell> Cells = runLattice(M, nullptr, Base);
      expectLatticeAgrees(Cells, Fresh,
                          Tag + (Falsifier ? " falsifier" : " exhaustive"),
                          Truth);
      if (referenceCell(Cells).R.Ok)
        break; // the falsifier finds nothing on a clean program
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerOracleTest, ::testing::Range(0, 6));

/// A second seed stream for the BFS order on its own: the default
/// configuration (falsifier on) with Order = Bfs, against brute force.
class CheckerBfsOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(CheckerBfsOracleTest, AgreesWithBruteForce) {
  Rng R(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  for (int Iter = 0; Iter < 25; ++Iter) {
    Program P;
    buildRandomProgram(P, R, /*Symmetric=*/false);
    flat::FlatProgram FP = flat::flatten(P);
    exec::Machine M(FP, {});
    bool OracleOk = oracleExplore(M, M.initialState());
    CheckerConfig Cfg;
    Cfg.Order = SearchOrder::Bfs;
    CheckResult Got = checkCandidate(M, Cfg);
    ASSERT_EQ(Got.Ok, OracleOk)
        << "seed " << GetParam() << " iter " << Iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerBfsOracleTest, ::testing::Range(0, 4));
