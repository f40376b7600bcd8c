//===- tests/test_sat.cpp - CDCL solver tests ------------------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "sat/Dimacs.h"
#include "sat/Solver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>

using namespace psketch;
using namespace psketch::sat;

namespace {

Lit pos(Var V) { return Lit(V, false); }
Lit neg(Var V) { return Lit(V, true); }

/// Brute-force satisfiability oracle for small formulas.
bool bruteSat(const Cnf &F) {
  for (uint64_t Mask = 0; Mask < (1ull << F.NumVars); ++Mask) {
    bool AllSat = true;
    for (const auto &Clause : F.Clauses) {
      bool ClauseSat = false;
      for (Lit L : Clause) {
        bool Value = (Mask >> L.var()) & 1;
        if (Value != L.sign()) {
          ClauseSat = true;
          break;
        }
      }
      if (!ClauseSat) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

Cnf randomCnf(Rng &R, int MaxVars, int MaxClauses) {
  Cnf F;
  F.NumVars = 2 + static_cast<int>(R.below(MaxVars - 1));
  int NumClauses = 1 + static_cast<int>(R.below(MaxClauses));
  for (int C = 0; C < NumClauses; ++C) {
    std::vector<Lit> Clause;
    int Len = 1 + static_cast<int>(R.below(4));
    for (int I = 0; I < Len; ++I)
      Clause.push_back(
          Lit(static_cast<Var>(R.below(F.NumVars)), R.below(2) != 0));
    F.Clauses.push_back(Clause);
  }
  return F;
}

} // namespace

TEST(Solver, EmptyInstanceIsSat) {
  Solver S;
  EXPECT_TRUE(S.solve());
}

TEST(Solver, UnitPropagation) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(pos(A));
  S.addClause(neg(A), pos(B));
  ASSERT_TRUE(S.solve());
  EXPECT_EQ(S.modelValue(A), LBool::True);
  EXPECT_EQ(S.modelValue(B), LBool::True);
}

TEST(Solver, TrivialUnsat) {
  Solver S;
  Var A = S.newVar();
  S.addClause(pos(A));
  EXPECT_FALSE(S.addClause(neg(A)));
  EXPECT_FALSE(S.okay());
  EXPECT_FALSE(S.solve());
}

TEST(Solver, TautologyIgnored) {
  Solver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause(std::vector<Lit>{pos(A), neg(A)}));
  EXPECT_EQ(S.numClauses(), 0u);
  EXPECT_TRUE(S.solve());
}

TEST(Solver, DuplicateLiteralsMerged) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(std::vector<Lit>{pos(A), pos(A), pos(B)});
  ASSERT_TRUE(S.solve());
}

TEST(Solver, PigeonHole3Into2IsUnsat) {
  // p_{i,j}: pigeon i in hole j; 3 pigeons, 2 holes.
  Solver S;
  Var P[3][2];
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (int I = 0; I < 3; ++I)
    S.addClause(pos(P[I][0]), pos(P[I][1]));
  for (int J = 0; J < 2; ++J)
    for (int I = 0; I < 3; ++I)
      for (int K = I + 1; K < 3; ++K)
        S.addClause(neg(P[I][J]), neg(P[K][J]));
  EXPECT_FALSE(S.solve());
}

TEST(Solver, XorChainForcesLearning) {
  // A chain of xors with a parity contradiction at the end.
  Solver S;
  const int N = 12;
  std::vector<Var> X;
  for (int I = 0; I < N; ++I)
    X.push_back(S.newVar());
  auto AddXorEq = [&](Var A, Var B, Var C) {
    // C = A xor B
    S.addClause(neg(C), pos(A), pos(B));
    S.addClause(neg(C), neg(A), neg(B));
    S.addClause(pos(C), pos(A), neg(B));
    S.addClause(pos(C), neg(A), pos(B));
  };
  for (int I = 2; I < N; ++I)
    AddXorEq(X[I - 2], X[I - 1], X[I]);
  S.addClause(pos(X[0]));
  S.addClause(pos(X[1]));
  ASSERT_TRUE(S.solve());
  // x2 = 1^1 = 0, x3 = 1^0 = 1, ...
  EXPECT_EQ(S.modelValue(X[2]), LBool::False);
  EXPECT_EQ(S.modelValue(X[3]), LBool::True);
}

TEST(Solver, Assumptions) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(neg(A), pos(B));
  EXPECT_TRUE(S.solve({pos(A)}));
  EXPECT_EQ(S.modelValue(B), LBool::True);
  S.addClause(neg(B));
  EXPECT_FALSE(S.solve({pos(A)})); // A -> B contradicts !B
  EXPECT_TRUE(S.okay());           // but only under the assumption
  EXPECT_TRUE(S.solve({neg(A)}));
}

TEST(Solver, IncrementalAddAfterSolve) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(pos(A), pos(B));
  ASSERT_TRUE(S.solve());
  S.addClause(neg(A));
  ASSERT_TRUE(S.solve());
  EXPECT_EQ(S.modelValue(B), LBool::True);
  S.addClause(neg(B));
  EXPECT_FALSE(S.solve());
}

TEST(Solver, ConflictBudget) {
  // A hard instance with a tiny budget must report exhaustion.
  Solver S;
  Var P[5][4];
  for (auto &Row : P)
    for (Var &V : Row)
      V = S.newVar();
  for (int I = 0; I < 5; ++I)
    S.addClause(std::vector<Lit>{pos(P[I][0]), pos(P[I][1]), pos(P[I][2]),
                                 pos(P[I][3])});
  for (int J = 0; J < 4; ++J)
    for (int I = 0; I < 5; ++I)
      for (int K = I + 1; K < 5; ++K)
        S.addClause(neg(P[I][J]), neg(P[K][J]));
  S.setConflictBudget(1);
  bool Result = S.solve();
  if (!Result)
    SUCCEED(); // either budget-exhausted or genuinely proven
  EXPECT_TRUE(S.budgetExhausted() || !S.okay() || Result);
}

TEST(Solver, ModelSatisfiesAllClauses) {
  Rng R(2024);
  for (int Iter = 0; Iter < 200; ++Iter) {
    Cnf F = randomCnf(R, 14, 60);
    Solver S;
    if (!loadCnf(F, S))
      continue;
    if (!S.solve())
      continue;
    for (const auto &Clause : F.Clauses) {
      bool Sat = false;
      for (Lit L : Clause)
        if (S.modelValue(L) == LBool::True)
          Sat = true;
      EXPECT_TRUE(Sat) << "model violates a clause";
    }
  }
}

// Property: solver verdict == brute force on random small instances.
class SolverRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverRandomTest, AgreesWithBruteForce) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (int Iter = 0; Iter < 150; ++Iter) {
    Cnf F = randomCnf(R, 10, 40);
    Solver S;
    bool Loaded = loadCnf(F, S);
    bool Got = Loaded && S.solve();
    EXPECT_EQ(Got, bruteSat(F)) << writeDimacs(F);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverRandomTest, ::testing::Range(0, 8));

TEST(Luby, FirstTerms) {
  const uint64_t Expected[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (size_t I = 0; I < std::size(Expected); ++I)
    EXPECT_EQ(lubySequence(I), Expected[I]) << "index " << I;
}

TEST(Dimacs, RoundTrip) {
  Cnf F;
  F.NumVars = 3;
  F.Clauses = {{pos(0), neg(1)}, {pos(2)}, {neg(0), neg(2)}};
  std::string Text = writeDimacs(F);
  Cnf Parsed;
  std::string Error;
  ASSERT_TRUE(parseDimacs(Text, Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.NumVars, 3);
  ASSERT_EQ(Parsed.Clauses.size(), 3u);
  EXPECT_EQ(Parsed.Clauses[0], F.Clauses[0]);
  EXPECT_EQ(Parsed.Clauses[2], F.Clauses[2]);
}

TEST(Dimacs, ParsesCommentsAndHeader) {
  Cnf F;
  std::string Error;
  ASSERT_TRUE(parseDimacs("c a comment\np cnf 2 1\n1 -2 0\n", F, Error));
  EXPECT_EQ(F.NumVars, 2);
  ASSERT_EQ(F.Clauses.size(), 1u);
  EXPECT_EQ(F.Clauses[0][1], neg(1));
}

TEST(Dimacs, RejectsTrailingClause) {
  Cnf F;
  std::string Error;
  EXPECT_FALSE(parseDimacs("p cnf 2 1\n1 -2\n", F, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(Dimacs, RejectsGarbage) {
  Cnf F;
  std::string Error;
  EXPECT_FALSE(parseDimacs("p cnf 2 1\n1 x 0\n", F, Error));
}

TEST(Solver, HardRandomInstanceExercisesRestartsAndLearning) {
  // 3-SAT near the phase transition: forces learning, restarts, and
  // usually clause-database maintenance.
  Rng R(77);
  Solver S;
  const int Vars = 120;
  for (int V = 0; V < Vars; ++V)
    S.newVar();
  for (int C = 0; C < static_cast<int>(Vars * 4.2); ++C) {
    std::vector<Lit> Clause;
    for (int L = 0; L < 3; ++L)
      Clause.push_back(
          Lit(static_cast<Var>(R.below(Vars)), R.below(2) != 0));
    S.addClause(std::move(Clause));
  }
  (void)S.solve();
  EXPECT_GT(S.stats().Conflicts, 0u);
  EXPECT_GT(S.stats().Decisions, 0u);
  EXPECT_GT(S.stats().Propagations, 0u);
}

TEST(Solver, ManyIncrementalRoundsStayConsistent) {
  // Mimics the inductive synthesizer: add clauses round by round until
  // UNSAT; once UNSAT, it must stay UNSAT.
  Solver S;
  const int N = 8;
  std::vector<Var> X;
  for (int I = 0; I < N; ++I)
    X.push_back(S.newVar());
  bool WasUnsat = false;
  Rng R(5);
  for (int Round = 0; Round < 64; ++Round) {
    std::vector<Lit> Clause;
    for (int L = 0; L < 2; ++L)
      Clause.push_back(Lit(X[R.below(N)], R.below(2) != 0));
    S.addClause(std::move(Clause));
    bool Sat = S.solve();
    if (WasUnsat) {
      EXPECT_FALSE(Sat) << "UNSAT must be monotone under clause addition";
    }
    WasUnsat = WasUnsat || !Sat;
  }
}

//===----------------------------------------------------------------------===//
// Clause arena: in-list binary watchers, reduceDB and relocation.
//===----------------------------------------------------------------------===//

namespace {

using ClauseList = std::vector<std::vector<Lit>>;

/// Bit-parallel brute force for up to 20 variables: 64 assignments per
/// word, where bit A of a word is assignment A of its chunk.
bool bruteSatWide(int NumVars, const ClauseList &Clauses) {
  static const uint64_t LowVarPattern[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  uint64_t Chunks = NumVars > 6 ? 1ull << (NumVars - 6) : 1;
  uint64_t Valid = NumVars >= 6 ? ~0ull : (1ull << (1u << NumVars)) - 1;
  std::vector<uint64_t> Value(NumVars);
  for (uint64_t Chunk = 0; Chunk < Chunks; ++Chunk) {
    for (int V = 0; V < NumVars; ++V)
      Value[V] = V < 6 ? LowVarPattern[V]
                       : (((Chunk >> (V - 6)) & 1) ? ~0ull : 0);
    uint64_t Sat = Valid;
    for (const std::vector<Lit> &Clause : Clauses) {
      uint64_t Any = 0;
      for (Lit L : Clause)
        Any |= L.sign() ? ~Value[L.var()] : Value[L.var()];
      Sat &= Any;
      if (Sat == 0)
        break;
    }
    if (Sat != 0)
      return true;
  }
  return false;
}

bool modelSatisfies(const Solver &S, const ClauseList &Clauses) {
  for (const std::vector<Lit> &Clause : Clauses) {
    bool Sat = false;
    for (Lit L : Clause)
      Sat = Sat || S.modelValue(L) == LBool::True;
    if (!Sat)
      return false;
  }
  return true;
}

/// A random AIG-shaped instance, in rounds. Round 0 is the Tseitin
/// encoding of random AND gates over the inputs and earlier gates: two
/// binaries and a ternary per gate, as circuit::CnfBuilder emits them
/// for a plain AND (a mux or XOR gate gets ternaries only; see
/// docs/SOLVER.md §8).
/// Each later round adds a few short constraints (units, binaries,
/// ternaries), the way counterexample observations arrive in CEGIS.
std::vector<ClauseList> randomAigRounds(Rng &R, int NumVars, int Rounds,
                                        int Inputs) {
  auto AnyLit = [&](int Below) {
    Var V = static_cast<Var>(R.below(Below));
    bool Negated = R.below(2) != 0;
    return Lit(V, Negated);
  };
  std::vector<ClauseList> Out(1);
  for (int G = Inputs; G < NumVars; ++G) {
    Lit Gate(G, false), A = AnyLit(G), B = AnyLit(G);
    Out[0].push_back({~Gate, A});
    Out[0].push_back({~Gate, B});
    Out[0].push_back({Gate, ~A, ~B});
  }
  for (int Round = 1; Round <= Rounds; ++Round) {
    ClauseList &Constraints = Out.emplace_back();
    int Count = 1 + static_cast<int>(R.below(3));
    for (int C = 0; C < Count; ++C) {
      std::vector<Lit> &Clause = Constraints.emplace_back();
      int Len = 1 + static_cast<int>(R.below(3));
      for (int L = 0; L < Len; ++L)
        Clause.push_back(AnyLit(NumVars));
    }
  }
  return Out;
}

struct RoundsRun {
  SolverStats Stats;
  InprocessStats IStats;
  std::vector<bool> Verdicts;
};

/// Replays \p Rounds on one warm-started solver that inprocesses before
/// every solve, checking each verdict against brute force and each model
/// against every clause added so far.
RoundsRun runRounds(int NumVars, const std::vector<ClauseList> &Rounds) {
  Solver S;
  S.setWarmStart(true);
  S.setInprocessCadence(1);
  for (int V = 0; V < NumVars; ++V)
    S.newVar();
  ClauseList Added;
  RoundsRun Run;
  for (const ClauseList &Round : Rounds) {
    for (const std::vector<Lit> &Clause : Round) {
      S.addClause(Clause);
      Added.push_back(Clause);
    }
    bool Sat = S.solve();
    Run.Verdicts.push_back(Sat);
    EXPECT_EQ(Sat, bruteSatWide(NumVars, Added));
    if (Sat) {
      EXPECT_TRUE(modelSatisfies(S, Added)) << "model violates a clause";
    }
  }
  Run.Stats = S.stats();
  Run.IStats = S.inprocessStats();
  return Run;
}

} // namespace

TEST(SolverArena, WarmInprocessingAgreesWithBruteForceAndRepeats) {
  Rng R(0xA4E7Aull);
  uint64_t Relocations = 0;
  for (int Instance = 0; Instance < 60; ++Instance) {
    SCOPED_TRACE("instance " + std::to_string(Instance));
    int NumVars = 8 + static_cast<int>(R.below(13)); // at most 20
    int Inputs = 3 + static_cast<int>(R.below(3));
    std::vector<ClauseList> Rounds = randomAigRounds(R, NumVars, 8, Inputs);
    RoundsRun First = runRounds(NumVars, Rounds);
    RoundsRun Second = runRounds(NumVars, Rounds);
    EXPECT_EQ(First.Verdicts, Second.Verdicts);
    EXPECT_TRUE(First.Stats == Second.Stats) << "identical runs diverged";
    EXPECT_EQ(First.IStats.RemovedSatisfied, Second.IStats.RemovedSatisfied);
    EXPECT_EQ(First.IStats.StrengthenedLits, Second.IStats.StrengthenedLits);
    EXPECT_EQ(First.IStats.VivifiedLits, Second.IStats.VivifiedLits);
    Relocations += First.Stats.Relocations;
  }
  EXPECT_GT(Relocations, 0u) << "no instance compacted the clause arena";
}

TEST(SolverArena, ReduceDBAndRelocationKeepModelsAndRepeat) {
  // A random 3-SAT instance with binary side constraints, solved in
  // rounds: enough conflicts to pass the learnt budget (problem clauses
  // / 3 + 2000), so reduceDB deletes learnt clauses and the arena is
  // compacted mid-search. Warm and cold solvers must agree on every
  // verdict, and two identical runs must do identical work.
  //
  // The work is also pinned. These counters are what the solver did on
  // this instance before clauses moved into the arena; any change to the
  // order of propagation, conflict analysis or the clause database moves
  // them. Refresh them only for a deliberate change of heuristic.
  Rng R(0xDB5EEDull);
  const int Vars = 190;
  auto AnyLit = [&]() {
    Var V = static_cast<Var>(R.below(Vars));
    bool Negated = R.below(2) != 0;
    return Lit(V, Negated);
  };
  std::vector<ClauseList> Rounds(1);
  for (int C = 0; C < Vars * 426 / 100; ++C)
    Rounds[0].push_back({AnyLit(), AnyLit(), AnyLit()});
  for (int Round = 0; Round < 4; ++Round) {
    ClauseList &Extra = Rounds.emplace_back();
    for (int C = 0; C < 4; ++C)
      Extra.push_back({AnyLit(), AnyLit()});
  }

  auto Run = [&](bool Warm, std::vector<bool> &Verdicts) {
    Solver S;
    S.setWarmStart(Warm);
    S.setInprocessCadence(1);
    for (int V = 0; V < Vars; ++V)
      S.newVar();
    ClauseList Added;
    for (const ClauseList &Round : Rounds) {
      for (const std::vector<Lit> &Clause : Round) {
        S.addClause(Clause);
        Added.push_back(Clause);
      }
      bool Sat = S.solve();
      Verdicts.push_back(Sat);
      if (Sat) {
        EXPECT_TRUE(modelSatisfies(S, Added)) << "model violates a clause";
      }
    }
    return S.stats();
  };
  struct Pinned {
    uint64_t Decisions, Propagations, Conflicts, Restarts, LearntLiterals,
        DeletedClauses;
  };
  const Pinned Expected[2] = {{8824, 357461, 7155, 40, 71456, 5271},
                              {8494, 358938, 6938, 29, 71828, 5291}};
  for (bool Warm : {false, true}) {
    std::vector<bool> First, Second, Cold;
    SolverStats A = Run(Warm, First);
    SolverStats B = Run(Warm, Second);
    EXPECT_TRUE(A == B) << "identical runs diverged, warm=" << Warm;
    EXPECT_EQ(First, Second);
    EXPECT_GT(A.DeletedClauses, 0u) << "reduceDB never ran, warm=" << Warm;
    EXPECT_GT(A.Relocations, 0u) << "arena never relocated, warm=" << Warm;
    const Pinned &P = Expected[Warm];
    EXPECT_EQ(A.Decisions, P.Decisions) << "warm=" << Warm;
    EXPECT_EQ(A.Propagations, P.Propagations) << "warm=" << Warm;
    EXPECT_EQ(A.Conflicts, P.Conflicts) << "warm=" << Warm;
    EXPECT_EQ(A.Restarts, P.Restarts) << "warm=" << Warm;
    EXPECT_EQ(A.LearntLiterals, P.LearntLiterals) << "warm=" << Warm;
    EXPECT_EQ(A.DeletedClauses, P.DeletedClauses) << "warm=" << Warm;
    if (Warm) {
      Run(false, Cold);
      EXPECT_EQ(First, Cold) << "warm and cold verdicts diverge";
    }
  }
}

TEST(SolverArena, BinaryHeavyTrajectoryIsPinned) {
  // Pinned counters, as above, on a binary-heavy AIG-shaped instance:
  // here binary conflicts occur, so writing a binary conflict in any
  // order but [partner, ~p] moves the counters.
  Rng R(0xA165EEDull);
  const int Vars = 600;
  std::vector<ClauseList> Rounds = randomAigRounds(R, Vars, 60, 60);
  const uint64_t Expected[2][3] = {{867, 8115, 3}, {525, 5772, 3}};
  for (bool Warm : {false, true}) {
    Solver S;
    S.setWarmStart(Warm);
    S.setInprocessCadence(1);
    for (int V = 0; V < Vars; ++V)
      S.newVar();
    for (const ClauseList &Round : Rounds) {
      for (const std::vector<Lit> &Clause : Round)
        S.addClause(Clause);
      (void)S.solve();
    }
    EXPECT_EQ(S.stats().Decisions, Expected[Warm][0]) << "warm=" << Warm;
    EXPECT_EQ(S.stats().Propagations, Expected[Warm][1]) << "warm=" << Warm;
    EXPECT_EQ(S.stats().Conflicts, Expected[Warm][2]) << "warm=" << Warm;
  }
}

TEST(SolverArena, RootLevelBinaryConflict) {
  // Root propagation through binary clauses alone: a -> b and a -> ~b,
  // then the unit a. The conflict is found without reading the clauses.
  for (bool Warm : {false, true}) {
    Solver S;
    S.setWarmStart(Warm);
    Var A = S.newVar(), B = S.newVar(), C = S.newVar();
    S.addClause(pos(B), pos(C)); // a bystander on b's watch list
    S.addClause(neg(A), pos(B));
    S.addClause(neg(A), neg(B));
    EXPECT_FALSE(S.addClause(pos(A)));
    EXPECT_FALSE(S.okay());
    EXPECT_FALSE(S.solve());
  }
  // The same shape reached by search: every clause is binary, so the
  // conflicts, their analysis and the learnt root unit all go through
  // binary watchers, ending in a conflict at the root.
  for (bool Warm : {false, true}) {
    Solver S;
    S.setWarmStart(Warm);
    Var A = S.newVar(), B = S.newVar(), C = S.newVar();
    S.addClause(pos(A), pos(B));
    S.addClause(pos(A), neg(B));
    S.addClause(neg(A), pos(C));
    S.addClause(neg(A), neg(C));
    EXPECT_FALSE(S.solve());
    EXPECT_FALSE(S.okay());
    EXPECT_GT(S.stats().Conflicts, 0u);
  }
}

TEST(Solver, AssumptionsDoNotPollute) {
  // Solving under incompatible assumptions must not make the instance
  // permanently unsatisfiable.
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(pos(A), pos(B));
  EXPECT_FALSE(S.solve({neg(A), neg(B)}));
  EXPECT_TRUE(S.okay());
  EXPECT_TRUE(S.solve());
  EXPECT_TRUE(S.solve({neg(A)}));
  EXPECT_EQ(S.modelValue(B), LBool::True);
}

TEST(SatSolver, RewatchIntoGrowingListsKeepsScanValid) {
  // Assuming ~x makes propagation scan the watch list of every clause
  // (x | z_i | r_i). Each clause finds r_i as its new watch and is pushed
  // onto ~r_i's list while the scan still holds pointers into x's. Four
  // fifths of the clauses share four targets t_0..t_3, whose lists grow
  // through every slot size up to blocks of their own; the rest watch a
  // fresh w_i each, so new pages are carved as the scan runs.
  const int Shared = 4 * 6000, Own = 6000;
  struct Vars {
    Var X;
    std::vector<Var> Z, T, W;
  };
  auto Build = [&](Solver &S, ClauseList &Added) {
    Vars Vs;
    Var X = Vs.X = S.newVar();
    std::vector<Var> &Z = Vs.Z, &T = Vs.T, &W = Vs.W;
    for (int I = 0; I < Shared + Own; ++I)
      Z.push_back(S.newVar());
    for (int J = 0; J < 4; ++J)
      T.push_back(S.newVar());
    for (int I = 0; I < Own; ++I)
      W.push_back(S.newVar());
    // Literals are sorted on the way in, so x and z_i take the watches.
    for (int I = 0; I < Shared + Own; ++I) {
      Lit R = I < Shared ? pos(T[I % 4]) : pos(W[I - Shared]);
      Added.push_back({pos(X), pos(Z[I]), R});
      S.addClause(Added.back());
    }
    return Vs;
  };

  Solver S;
  ClauseList Added;
  const Vars Vs = Build(S, Added);
  const Var X = Vs.X;
  const std::vector<Var> &Z = Vs.Z, &T = Vs.T, &W = Vs.W;
  size_t BytesBefore = S.memoryBytes();
  ASSERT_TRUE(S.solve({neg(X)}));
  EXPECT_TRUE(modelSatisfies(S, Added));
  EXPECT_GT(S.memoryBytes(), BytesBefore + (Shared + Own) * size_t(8))
      << "the scan did not rewatch the clauses";

  // The lists the scan rebuilt answer like those of a solver that never
  // ran it.
  Solver Fresh;
  ClauseList FreshAdded;
  Build(Fresh, FreshAdded);
  std::vector<Lit> AllTFalse = {neg(X), neg(T[0]), neg(T[1]), neg(T[2]),
                                neg(T[3])};
  for (Solver *Each : {&S, &Fresh}) {
    ASSERT_TRUE(Each->solve(AllTFalse));
    for (int I = 0; I < Shared; ++I)
      ASSERT_EQ(Each->modelValue(Z[I]), LBool::True) << "z_" << I;
    EXPECT_FALSE(Each->solve({neg(X), neg(T[1]), neg(Z[5])}));
    EXPECT_FALSE(Each->solve({neg(X), neg(Z[Shared + 7]), neg(W[7])}));
    EXPECT_TRUE(Each->solve({neg(X), neg(Z[Shared + 7])}));
  }
  EXPECT_TRUE(modelSatisfies(S, Added));
}

TEST(SatSolver, TrajectoryUnchangedOnFixedInstances) {
  // Seeded instances solved incrementally, warm and cold, with the work
  // pinned. The counters are the solver's before its watch lists moved
  // into a pooled store; any change to the order in which watchers are
  // pushed, compacted, removed or forwarded moves them. Root facts arrive
  // between solves, so satisfied clauses are detached as well.
  struct Work {
    uint64_t Conflicts, Decisions, Propagations;
    const char *Verdicts;
  };
  auto Solve = [](Solver &S, const std::vector<Lit> &Assume, std::string &V) {
    V += S.solve(Assume) ? 'S' : 'U';
  };

  // Random 3-CNF near the threshold, in rounds; each round is followed
  // by an assumption solve on three random literals and a plain solve.
  auto Random3Cnf = [&](uint64_t Seed, bool Warm, std::string &V) {
    Rng R(Seed);
    const int Vars = 90;
    Solver S;
    S.setWarmStart(Warm);
    S.setInprocessCadence(1);
    for (int I = 0; I < Vars; ++I)
      S.newVar();
    auto AnyLit = [&]() {
      return Lit(static_cast<Var>(R.below(Vars)), R.below(2) != 0);
    };
    for (int Round = 0; Round < 10; ++Round) {
      for (int C = 0; C < 39; ++C)
        S.addClause({AnyLit(), AnyLit(), AnyLit()});
      Solve(S, {AnyLit(), AnyLit(), AnyLit()}, V);
      Solve(S, {}, V);
      // A root fact satisfies clauses, which the next solve (cold) or
      // inprocessing pass (warm) detaches.
      if (Round % 3 == 2)
        S.addClause(AnyLit());
    }
    return S.stats();
  };

  // Tseitin parity formulas on a random graph of degree about 4: one
  // variable per edge, and at each vertex the incident edges' XOR equals
  // the vertex's charge. The charges sum to odd, so the formula is
  // unsatisfiable once every vertex is in. Vertices arrive one per round.
  auto Tseitin = [&](uint64_t Seed, bool Warm, std::string &V) {
    Rng R(Seed);
    const int Vertices = 16;
    std::vector<std::vector<Var>> Incident(Vertices);
    Solver S;
    S.setWarmStart(Warm);
    S.setInprocessCadence(1);
    for (int U = 0; U < Vertices; ++U) { // a ring keeps it connected
      Var E = S.newVar();
      Incident[U].push_back(E);
      Incident[(U + 1) % Vertices].push_back(E);
    }
    for (int K = 0; K < Vertices; ++K) {
      int U = static_cast<int>(R.below(Vertices));
      int W = static_cast<int>(R.below(Vertices));
      if (U == W || Incident[U].size() >= 5 || Incident[W].size() >= 5)
        continue;
      Var E = S.newVar();
      Incident[U].push_back(E);
      Incident[W].push_back(E);
    }
    for (int U = 0; U < Vertices; ++U) {
      bool Charge = U == 0;
      const std::vector<Var> &Es = Incident[U];
      // Forbid every assignment of the wrong parity: one clause each.
      for (uint32_t Mask = 0; Mask < (1u << Es.size()); ++Mask) {
        if ((std::popcount(Mask) % 2 == 1) == Charge)
          continue;
        std::vector<Lit> Clause;
        for (size_t I = 0; I < Es.size(); ++I)
          Clause.push_back(Lit(Es[I], ((Mask >> I) & 1) != 0));
        S.addClause(Clause);
      }
      Solve(S, {Lit(Es[0], R.below(2) != 0)}, V);
      Solve(S, {}, V);
      if (U % 4 == 3) // a root fact, as in the 3-CNF rounds
        S.addClause(Lit(Es.back(), R.below(2) != 0));
    }
    return S.stats();
  };

  const Work Expected[2][4] = {
      // Cold: 3-CNF seeds 3 and 4, Tseitin seeds 5 and 6.
      {{129, 907, 5466, "SSSSSSSSSSSSSSSSUUUU"},
       {9, 843, 1584, "SSSSSSSSSSSSSSUSUSUU"},
       {587, 1252, 6802, "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSUU"},
       {315, 1045, 3568, "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSUU"}},
      // Warm.
      {{138, 879, 8298, "SSSSSSSSSSSSSSSSUUUU"},
       {15, 913, 1978, "SSSSSSSSSSSSSSUSUSUU"},
       {299, 987, 4411, "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSUU"},
       {379, 1068, 5357, "SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSUU"}},
  };
  for (bool Warm : {false, true})
    for (int I = 0; I < 4; ++I) {
      std::string V;
      SolverStats Got = I < 2 ? Random3Cnf(3 + I, Warm, V)
                              : Tseitin(3 + I, Warm, V);
      const Work &E = Expected[Warm][I];
      EXPECT_EQ(Got.Conflicts, E.Conflicts) << "warm=" << Warm << " #" << I;
      EXPECT_EQ(Got.Decisions, E.Decisions) << "warm=" << Warm << " #" << I;
      EXPECT_EQ(Got.Propagations, E.Propagations)
          << "warm=" << Warm << " #" << I;
      EXPECT_EQ(V, E.Verdicts) << "warm=" << Warm << " #" << I;
    }
}
