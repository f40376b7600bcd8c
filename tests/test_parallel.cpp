//===- tests/test_parallel.cpp - parallel verification engine tests --------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The reproducibility contract under test (verify/ModelChecker.h):
//  * verdict, counterexample and falsifier run count depend only on the
//    config — not on the worker count or on thread timing — so every
//    worker count follows the W=1 CEGIS trajectory (tests/test_oracle.cpp
//    checks the same on every Figure 9 row and across the config
//    lattice);
//  * run-to-exhaustion state counts agree with one worker without sleep
//    sets (only scheduling statistics may differ);
//  * the shared visited table's sleep-mask protocol is atomic per state.
//
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

#include "cegis/Cegis.h"
#include "cegis/Enumerate.h"
#include "desugar/Flatten.h"
#include "support/Hash.h"
#include "verify/ModelChecker.h"
#include "verify/SearchCore.h"
#include "verify/Visited.h"

#include <gtest/gtest.h>

#include <thread>

using namespace psketch;
using namespace psketch::ir;
using namespace psketch::verify;
using psketch::test::buildCounter;
using psketch::test::expectSameCex;
using psketch::test::lightestRow;

namespace {

CheckResult check(Program &P, CheckerConfig Cfg = CheckerConfig()) {
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  return checkCandidate(M, Cfg);
}

/// Two racing increment threads with a synthesized lock decision (the
/// test_cegis sketch): exactly the hole value 1 resolves it.
void buildLockChoice(Program &P, unsigned &HoleOut, int ExpectedTotal) {
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned LK = P.addGlobal("lk", Type::Int, -1);
  HoleOut = P.addHole("useLock", 2);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("inc");
    BodyId B = BodyId::thread(Id);
    unsigned Tmp = P.addLocal(B, "tmp", Type::Int, 0);
    ExprRef Pid = P.constInt(T);
    ExprRef UseLock = P.eq(P.holeValue(HoleOut), P.constInt(1));
    P.setRoot(
        B, P.seq({P.ifS(UseLock, P.lock(P.locGlobal(LK), P.global(LK), Pid)),
                  P.assign(P.locLocal(Tmp), P.global(X)),
                  P.assign(P.locGlobal(X),
                           P.add(P.local(Tmp, Type::Int), P.constInt(1))),
                  P.ifS(UseLock, P.unlock(P.locGlobal(LK), P.global(LK),
                                          Pid, "owner"))}));
  }
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(ExpectedTotal)),
                      "expected total"));
}

} // namespace

//===----------------------------------------------------------------------===//
// Verdict and state-count agreement with the sequential engine.
//===----------------------------------------------------------------------===//

TEST(ParallelChecker, OkRunMatchesSequentialStateCount) {
  // Run-to-exhaustion explores the same deduped state set in any order,
  // so an Ok run's StatesExplored must not depend on the worker count.
  // Pinned to Por == Local: under Ample, which revisits sleep sets prune
  // depends on the order in which workers reach a state, so the
  // explored-set size is timing-dependent (the ModelChecker.h contract
  // documents this; verdicts still agree).
  std::vector<uint64_t> Counts;
  for (unsigned W : {1u, 2u, 4u, 8u}) {
    Program P;
    buildCounter(P, /*Atomic=*/true, 2, 4);
    CheckerConfig Cfg;
    Cfg.Por = PorMode::Local;
    Cfg.NumThreads = W;
    CheckResult R = check(P, Cfg);
    ASSERT_TRUE(R.Ok) << "W=" << W;
    EXPECT_EQ(R.WorkersUsed, W);
    Counts.push_back(R.StatesExplored);
    if (W > 1) {
      ASSERT_EQ(R.PerWorkerStates.size(), W);
      uint64_t Sum = 0;
      for (uint64_t S : R.PerWorkerStates)
        Sum += S;
      EXPECT_EQ(Sum, R.StatesExplored) << "W=" << W;
    } else {
      EXPECT_TRUE(R.PerWorkerStates.empty());
      EXPECT_EQ(R.Steals, 0u);
    }
  }
  for (uint64_t C : Counts)
    EXPECT_EQ(C, Counts.front());
}

TEST(ParallelChecker, FailingRunAgreesOnVerdict) {
  for (unsigned W : {2u, 3u, 8u}) {
    Program P;
    buildCounter(P, /*Atomic=*/false, 2, 4);
    CheckerConfig Cfg;
    Cfg.NumThreads = W;
    CheckResult R = check(P, Cfg);
    ASSERT_FALSE(R.Ok) << "W=" << W;
    ASSERT_TRUE(R.Cex.has_value());
    EXPECT_FALSE(R.Cex->Steps.empty());
  }
}

TEST(ParallelChecker, ZeroResolvesToHardwareConcurrency) {
  CheckerConfig Cfg;
  Cfg.NumThreads = 0;
  unsigned Resolved = resolvedNumThreads(Cfg);
  EXPECT_GE(Resolved, 1u);
  Program P;
  buildCounter(P, /*Atomic=*/true, 1, 2);
  CheckResult R = check(P, Cfg);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.WorkersUsed, Resolved);
}

//===----------------------------------------------------------------------===//
// Deterministic counterexample policy.
//===----------------------------------------------------------------------===//

TEST(ParallelChecker, CexIdenticalAcrossWorkerCounts) {
  // The reported counterexample is a function of the config alone:
  // compare the traces at W = 1, 2, 4, 8 step for step.
  std::optional<CheckResult> First;
  for (unsigned W : {1u, 2u, 4u, 8u}) {
    Program P;
    buildCounter(P, /*Atomic=*/false, 2, 4);
    CheckerConfig Cfg;
    Cfg.NumThreads = W;
    Cfg.Seed = 7;
    CheckResult R = check(P, Cfg);
    ASSERT_FALSE(R.Ok) << "W=" << W;
    if (!First) {
      First = R;
      continue;
    }
    expectSameCex(R, *First, "W=" + std::to_string(W));
    // Every worker count runs the same single-stream falsifier, so the
    // run count reported is worker-count independent too.
    EXPECT_EQ(R.RandomRunsUsed, First->RandomRunsUsed) << "W=" << W;
  }
}

TEST(ParallelChecker, CexStableAcrossRepeatedRuns) {
  std::optional<CheckResult> First;
  for (int Run = 0; Run < 3; ++Run) {
    Program P;
    buildCounter(P, /*Atomic=*/false, 3, 6);
    CheckerConfig Cfg;
    Cfg.NumThreads = 4;
    Cfg.Seed = 42;
    CheckResult R = check(P, Cfg);
    ASSERT_FALSE(R.Ok);
    if (!First) {
      First = R;
      continue;
    }
    expectSameCex(R, *First, "run " + std::to_string(Run));
  }
}

TEST(ParallelChecker, ExhaustivePhaseCexMatchesSequentialSearch) {
  // With the falsifier off, a parallel violation is re-derived by the
  // deterministic sequential search (DeterministicCex default): the
  // trace must equal the legacy engine's exactly.
  Program PSeq;
  buildCounter(PSeq, /*Atomic=*/false, 2, 4);
  CheckerConfig Seq;
  Seq.UseRandomFalsifier = false;
  CheckResult RSeq = check(PSeq, Seq);
  ASSERT_FALSE(RSeq.Ok);

  for (unsigned W : {2u, 8u}) {
    Program P;
    buildCounter(P, /*Atomic=*/false, 2, 4);
    CheckerConfig Cfg;
    Cfg.UseRandomFalsifier = false;
    Cfg.NumThreads = W;
    CheckResult R = check(P, Cfg);
    ASSERT_FALSE(R.Ok) << "W=" << W;
    expectSameCex(R, RSeq, "W=" + std::to_string(W));
  }
}

//===----------------------------------------------------------------------===//
// The shared table's sleep-mask protocol under concurrent inserts.
//===----------------------------------------------------------------------===//

namespace {

/// A degenerate fingerprint: every state lands in one shard and collides
/// with every other.
uint64_t collideEverything(const int64_t *, size_t) { return 0x1234; }

/// Every state lands in shard 0, at a home slot of its own.
uint64_t collideShard(const int64_t *W, size_t N) {
  return hashWords(W, N) & ~uint64_t{63};
}

/// Four threads offer the same 1500 states (x set to 0..1499: more than
/// a fresh cell's 1024 slots hold, so the offers run across grow())
/// three times over, thread t naming machine thread \p FirstBit + t in
/// its masks. The outcome of every offer follows from the masks alone,
/// whatever the interleaving:
///  1. all asleep (all four bits): each state is Fresh for exactly one
///     thread and a Prune for the other three;
///  2. thread t wakes only its own bit: the stored mask still holds bit
///     t, so every offer is a Wake of exactly bit t, and the stored mask
///     loses that bit;
///  3. nothing asleep (mask 0): the stored mask is now empty, so every
///     offer is a Prune.
void expectAtomicMaskProtocol(int MachineThreads, detail::StateHashFn Hash,
                              unsigned FirstBit) {
  constexpr unsigned Threads = 4;
  constexpr int64_t NumStates = 1500;
  Program P;
  buildCounter(P, /*Atomic=*/true, 1, 2, MachineThreads);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  ASSERT_GE(M.numThreads(), FirstBit + Threads);
  std::vector<exec::State> States;
  for (int64_t X = 0; X < NumStates; ++X) {
    exec::State S = M.initialState();
    S.setGlobal(0, X);
    States.push_back(std::move(S));
  }

  detail::ShardedVisited Table(Hash);
  struct Tally {
    uint64_t Fresh = 0, Prune = 0, Wake = 0, WrongWake = 0;
  };
  auto Round = [&](auto SleepOf) {
    std::vector<Tally> Tallies(Threads);
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back([&, T] {
        for (const exec::State &S : States) {
          uint64_t Wake = 0;
          switch (Table.insertMask(M, S, SleepOf(T), Wake)) {
          case detail::InsertOutcome::Fresh:
            ++Tallies[T].Fresh;
            break;
          case detail::InsertOutcome::Prune:
            ++Tallies[T].Prune;
            break;
          case detail::InsertOutcome::Wake:
            ++Tallies[T].Wake;
            Tallies[T].WrongWake += Wake != (1ull << (FirstBit + T));
            break;
          }
        }
      });
    for (std::thread &Th : Pool)
      Th.join();
    Tally Sum;
    for (const Tally &T : Tallies) {
      Sum.Fresh += T.Fresh;
      Sum.Prune += T.Prune;
      Sum.Wake += T.Wake;
      Sum.WrongWake += T.WrongWake;
    }
    return Sum;
  };

  const uint64_t All = uint64_t{0xF} << FirstBit;
  Tally Asleep = Round([&](unsigned) { return All; });
  EXPECT_EQ(Asleep.Fresh, uint64_t(NumStates));
  EXPECT_EQ(Asleep.Prune, uint64_t(NumStates) * (Threads - 1));
  EXPECT_EQ(Asleep.Wake, 0u);

  Tally OwnAwake =
      Round([&](unsigned T) { return All & ~(1ull << (FirstBit + T)); });
  EXPECT_EQ(OwnAwake.Fresh, 0u);
  EXPECT_EQ(OwnAwake.Prune, 0u);
  EXPECT_EQ(OwnAwake.Wake, uint64_t(NumStates) * Threads);
  EXPECT_EQ(OwnAwake.WrongWake, 0u);

  Tally Awake = Round([](unsigned) { return uint64_t{0}; });
  EXPECT_EQ(Awake.Fresh, 0u);
  EXPECT_EQ(Awake.Prune, uint64_t(NumStates) * Threads);
  EXPECT_EQ(Awake.Wake, 0u);
}

} // namespace

TEST(ParallelChecker, ShardedInsertMaskIsAtomicPerState) {
  // Every state collides with every other in one shard.
  expectAtomicMaskProtocol(/*MachineThreads=*/4, &collideEverything,
                           /*FirstBit=*/0);
}

TEST(ParallelChecker, ShardedInsertMaskKeepsWideMasksInOneShard) {
  // Twelve machine threads store two mask bytes; bits 8..11, all in the
  // second byte, carry the whole protocol, in a shard that holds every
  // state.
  expectAtomicMaskProtocol(/*MachineThreads=*/12, &collideShard,
                           /*FirstBit=*/8);
}

//===----------------------------------------------------------------------===//
// CEGIS-level determinism and the parallel enumerator.
//===----------------------------------------------------------------------===//

TEST(ParallelCegis, TrajectoryDeterministicAcrossWorkerCounts) {
  // Same seed, any W: identical iterations, resolution and learnt
  // counterexamples. The synthesizer's circuit size and its per-solve
  // search counters are functions of the traces it learnt, so they pin
  // the counterexamples too. The suite row is one where four workers
  // once drew different counterexamples from one.
  auto Lightest = lightestRow("dinphilo");
  ASSERT_TRUE(Lightest.has_value());
  auto Run = [](Program &P, unsigned W) {
    cegis::CegisConfig Cfg;
    Cfg.Checker.NumThreads = W;
    return cegis::ConcurrentCegis(P, Cfg).run();
  };
  for (int Sketch = 0; Sketch < 2; ++Sketch) {
    std::optional<cegis::CegisResult> First;
    for (unsigned W : {1u, 2u, 2u, 4u, 8u}) { // W=2 twice: rerun identity
      std::unique_ptr<Program> P;
      unsigned H = 0;
      if (Sketch == 0) {
        P = std::make_unique<Program>();
        buildLockChoice(*P, H, 2);
      } else {
        P = Lightest->Build();
      }
      cegis::CegisResult R = Run(*P, W);
      std::string Tag = "sketch " + std::to_string(Sketch) +
                        " W=" + std::to_string(W);
      ASSERT_TRUE(R.Stats.Resolvable) << Tag;
      if (Sketch == 0) {
        EXPECT_EQ(R.Candidate[H], 1u) << Tag;
      }
      EXPECT_EQ(R.Stats.CheckerWorkers, W) << Tag;
      if (!First) {
        First = std::move(R);
        continue;
      }
      EXPECT_EQ(R.Stats.Iterations, First->Stats.Iterations) << Tag;
      EXPECT_EQ(R.Candidate, First->Candidate) << Tag;
      EXPECT_EQ(R.Stats.GateCount, First->Stats.GateCount) << Tag;
      EXPECT_EQ(R.Stats.ClauseCount, First->Stats.ClauseCount) << Tag;
      ASSERT_EQ(R.Stats.SolveLog.size(), First->Stats.SolveLog.size()) << Tag;
      for (size_t I = 0; I < R.Stats.SolveLog.size(); ++I) {
        EXPECT_EQ(R.Stats.SolveLog[I].Conflicts,
                  First->Stats.SolveLog[I].Conflicts)
            << Tag << " solve " << I;
        EXPECT_EQ(R.Stats.SolveLog[I].Decisions,
                  First->Stats.SolveLog[I].Decisions)
            << Tag << " solve " << I;
      }
    }
  }
}

TEST(ParallelCegis, SequentialConfigUnchangedByDispatch) {
  // NumThreads == 1 must take the legacy path: same verdict, iterations,
  // and state totals as the default config.
  Program PA, PB;
  unsigned HA = 0, HB = 0;
  buildLockChoice(PA, HA, 2);
  buildLockChoice(PB, HB, 2);
  cegis::CegisConfig Default;
  cegis::CegisConfig One;
  One.Checker.NumThreads = 1;
  cegis::CegisResult RA = cegis::ConcurrentCegis(PA, Default).run();
  cegis::CegisResult RB = cegis::ConcurrentCegis(PB, One).run();
  ASSERT_TRUE(RA.Stats.Resolvable);
  ASSERT_TRUE(RB.Stats.Resolvable);
  EXPECT_EQ(RA.Stats.Iterations, RB.Stats.Iterations);
  EXPECT_EQ(RA.Stats.StatesExplored, RB.Stats.StatesExplored);
  EXPECT_EQ(RB.Stats.CheckerWorkers, 1u);
  EXPECT_EQ(RB.Stats.CheckerSteals, 0u);
}

namespace {

void buildConstantHole(Program &P, unsigned &HoleOut) {
  unsigned X = P.addGlobal("x", Type::Int, 0);
  HoleOut = P.addHole("h", 16);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T), P.assign(P.locGlobal(X), P.holeValue(HoleOut)));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.ge(P.global(X), P.constInt(11)), "x>=11"));
}

} // namespace

TEST(ParallelEnumerate, WorkerCountDoesNotChangeEnumeration) {
  // Enumeration runs the W-worker checker per candidate, and that checker
  // reports the one-worker counterexample: W=1 and W=4 learn the same
  // traces, so they propose, verify and record the same candidates in
  // the same order. The constant-hole sketch runs to exhaustion (h in
  // [11, 15] are exactly the correct candidates); the dinphilo row stops
  // at its cap.
  auto Dinphilo = lightestRow("dinphilo");
  ASSERT_TRUE(Dinphilo.has_value());
  for (int Sketch = 0; Sketch < 2; ++Sketch) {
    std::optional<cegis::EnumerateResult> First;
    for (unsigned W : {1u, 4u}) {
      std::unique_ptr<Program> P;
      unsigned H = 0;
      if (Sketch == 0) {
        P = std::make_unique<Program>();
        buildConstantHole(*P, H);
      } else {
        P = Dinphilo->Build();
      }
      cegis::CegisConfig Cfg;
      Cfg.Checker.NumThreads = W;
      cegis::EnumerateResult R = cegis::enumerateSolutions(*P, 8, Cfg);
      std::string Tag =
          "sketch " + std::to_string(Sketch) + " W=" + std::to_string(W);
      ASSERT_TRUE(R.Stats.Resolvable) << Tag;
      if (Sketch == 0) {
        EXPECT_TRUE(R.Exhausted) << Tag;
        EXPECT_EQ(R.Solutions.size(), 5u) << Tag;
      }
      if (!First) {
        First = std::move(R);
        continue;
      }
      EXPECT_EQ(R.Exhausted, First->Exhausted) << Tag;
      EXPECT_EQ(R.Stats.Iterations, First->Stats.Iterations) << Tag;
      ASSERT_EQ(R.Solutions.size(), First->Solutions.size()) << Tag;
      for (size_t I = 0; I < R.Solutions.size(); ++I) {
        EXPECT_EQ(R.Solutions[I].Candidate, First->Solutions[I].Candidate)
            << Tag << " solution " << I;
        EXPECT_EQ(R.Solutions[I].Cost, First->Solutions[I].Cost)
            << Tag << " solution " << I;
      }
      ASSERT_EQ(R.Stats.SolveLog.size(), First->Stats.SolveLog.size()) << Tag;
      for (size_t I = 0; I < R.Stats.SolveLog.size(); ++I)
        EXPECT_EQ(R.Stats.SolveLog[I].Conflicts,
                  First->Stats.SolveLog[I].Conflicts)
            << Tag << " solve " << I;
    }
  }
}

TEST(ParallelEnumerate, RespectsMaxSolutionsCap) {
  Program P;
  unsigned H = 0;
  buildConstantHole(P, H);
  cegis::CegisConfig Par;
  Par.Checker.NumThreads = 8;
  cegis::EnumerateResult R = cegis::enumerateSolutions(P, 2, Par);
  ASSERT_TRUE(R.Stats.Resolvable);
  EXPECT_EQ(R.Solutions.size(), 2u);
  for (const cegis::Solution &S : R.Solutions)
    EXPECT_GE(S.Candidate[H], 11u);
}
