//===- tests/test_cegis.cpp - end-to-end CEGIS tests ------------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Queue.h"
#include "benchmarks/Workload.h"
#include "cegis/Cegis.h"
#include "cegis/Enumerate.h"
#include "exec/Machine.h"
#include "frontend/Parser.h"
#include "synth/InductiveSynth.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>

using namespace psketch;
using namespace psketch::ir;
using namespace psketch::cegis;

namespace {

/// Two racing increment threads with a synthesized lock decision.
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

TEST(Cegis, ResolvesConstantHole) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned H = P.addHole("h", 16);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T), P.assign(P.locGlobal(X), P.holeValue(H)));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(11)), "x==11"));
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  EXPECT_EQ(R.Candidate[H], 11u);
  EXPECT_GE(R.Stats.Iterations, 1u);
}

TEST(Cegis, DiscoversTheLock) {
  Program P;
  unsigned H = 0;
  buildLockChoice(P, H, 2);
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  EXPECT_EQ(R.Candidate[H], 1u) << "only the locked variant is correct";
}

namespace {

/// examples/dining2.psk, parsed afresh (each CEGIS entry point flattens the
/// program it is given, so it needs its own copy).
std::unique_ptr<Program> parseDining2() {
  std::ifstream File(std::string(PSKETCH_EXAMPLES_DIR) + "/dining2.psk");
  std::stringstream Source;
  Source << File.rdbuf();
  frontend::ParseResult Parsed = frontend::parseProgram(Source.str());
  EXPECT_TRUE(Parsed.ok()) << Parsed.Error;
  return std::move(Parsed.Program);
}

} // namespace

// Every dining2 candidate has more than 10 states: the first one the
// falsifier cannot refute stops at MaxStates, and "Ok up to the budget"
// must end the run unanswered rather than accept the candidate.
TEST(Cegis, TruncatedCheckIsNoProof) {
  std::unique_ptr<Program> P = parseDining2();
  ASSERT_TRUE(P);
  CegisConfig Cfg;
  Cfg.Checker.MaxStates = 10;
  ConcurrentCegis C(*P, Cfg);
  CegisResult R = C.run();
  EXPECT_FALSE(R.Stats.Resolvable);
  EXPECT_TRUE(R.Stats.Aborted);
}

TEST(Cegis, TruncatedCheckIsNoEnumeratedSolution) {
  std::unique_ptr<Program> P = parseDining2();
  ASSERT_TRUE(P);
  CegisConfig Cfg;
  Cfg.Checker.MaxStates = 10;
  EnumerateResult R = enumerateSolutions(*P, 4, Cfg);
  EXPECT_TRUE(R.Solutions.empty());
  EXPECT_FALSE(R.Exhausted);
  EXPECT_TRUE(R.Stats.Aborted);
}

TEST(Cegis, ProvesUnresolvable) {
  Program P;
  unsigned H = 0;
  buildLockChoice(P, H, 3); // two increments can never make 3
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  EXPECT_FALSE(R.Stats.Resolvable);
  EXPECT_FALSE(R.Stats.Aborted);
  EXPECT_LE(R.Stats.Iterations, 4u) << "tiny space, few observations";
}

TEST(Cegis, ReorderQuadratic) {
  Program P;
  unsigned A = P.addGlobal("a", Type::Int, 0);
  unsigned B = P.addGlobal("b", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.reorder("r",
                      {P.assign(P.locGlobal(B), P.global(A)),
                       P.assign(P.locGlobal(A), P.constInt(1))},
                      ReorderEncoding::Quadratic));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(B), P.constInt(1)), "b==1"));
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  // The resolved order must run a=1 before b=a.
  std::string Out = C.printResolved(R);
  EXPECT_LT(Out.find("a = 1"), Out.find("b = a"));
}

TEST(Cegis, ReorderExponential) {
  Program P;
  unsigned A = P.addGlobal("a", Type::Int, 0);
  unsigned B = P.addGlobal("b", Type::Int, 0);
  unsigned Cg = P.addGlobal("c", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.reorder("r",
                      {P.assign(P.locGlobal(B), P.global(A)),
                       P.assign(P.locGlobal(A), P.constInt(1)),
                       P.assign(P.locGlobal(Cg),
                                P.add(P.global(B), P.constInt(1)))},
                      ReorderEncoding::Exponential));
  P.setRoot(BodyId::epilogue(),
            P.seq({P.assertS(P.eq(P.global(B), P.constInt(1)), "b==1"),
                   P.assertS(P.eq(P.global(Cg), P.constInt(2)), "c==2")}));
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  EXPECT_TRUE(R.Stats.Resolvable);
}

TEST(Cegis, StatsArePopulated) {
  Program P;
  unsigned H = 0;
  buildLockChoice(P, H, 2);
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  EXPECT_GT(R.Stats.TotalSeconds, 0.0);
  EXPECT_GT(R.Stats.PeakMemoryMiB, 0.0);
  EXPECT_GE(R.Stats.Iterations, 1u);
}

TEST(Cegis, IterationBudgetAborts) {
  Program P;
  unsigned H = 0;
  buildLockChoice(P, H, 2);
  CegisConfig Cfg;
  Cfg.MaxIterations = 0;
  ConcurrentCegis C(P, Cfg);
  CegisResult R = C.run();
  EXPECT_TRUE(R.Stats.Aborted);
  EXPECT_FALSE(R.Stats.Resolvable);
}

TEST(Cegis, LogCallbackFires) {
  Program P;
  unsigned H = 0;
  buildLockChoice(P, H, 2);
  unsigned Calls = 0;
  CegisConfig Cfg;
  Cfg.Log = [&Calls](const std::string &) { ++Calls; };
  ConcurrentCegis C(P, Cfg);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  EXPECT_EQ(Calls, R.Stats.Iterations - 1) << "one log per failed candidate";
}

// The generate-and-test baseline (LearnFromTraces off): a failing
// candidate is only excluded, so the loop needs more verifier calls than
// with trace learning, but it still ends on a correct candidate.
TEST(Cegis, ExcludeOnlyResolvesWithMoreIterations) {
  unsigned Iterations[2] = {0, 0};
  for (bool Learn : {true, false}) {
    auto P = bench::buildQueue(bench::parseWorkload("ed(ed|ed)"),
                               bench::QueueOptions{false, true});
    CegisConfig Cfg;
    Cfg.LearnFromTraces = Learn;
    ConcurrentCegis C(*P, Cfg);
    CegisResult R = C.run();
    ASSERT_TRUE(R.Stats.Resolvable) << "learn=" << Learn;
    Iterations[Learn] = R.Stats.Iterations;
    exec::Machine M(C.flatProgram(), R.Candidate);
    EXPECT_TRUE(verify::checkCandidate(M).Ok) << "learn=" << Learn;
  }
  EXPECT_GT(Iterations[false], Iterations[true]);
}

TEST(SequentialCegis, ResolvesLinearFunction) {
  // out = in + ?? must implement out = in + 3 over test inputs.
  Program P;
  unsigned In = P.addGlobal("in", Type::Int, 0);
  unsigned Out = P.addGlobal("out", Type::Int, 0);
  unsigned Expected = P.addGlobal("expected", Type::Int, 0);
  unsigned H = P.addHole("h", 8);
  unsigned T = P.addThread("f");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(Out), P.add(P.global(In), P.holeValue(H))));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(Out), P.global(Expected)), "matches"));
  std::vector<synth::GlobalOverrides> Tests;
  for (int64_t X = 0; X < 10; ++X)
    Tests.push_back({{In, X}, {Expected, X + 3}});
  SequentialCegis C(P, Tests);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  EXPECT_EQ(R.Candidate[H], 3u);
}

TEST(SequentialCegis, ProvesNoConstantWorks) {
  // out = in + ?? cannot implement out = 2 * in.
  Program P;
  unsigned In = P.addGlobal("in", Type::Int, 0);
  unsigned Out = P.addGlobal("out", Type::Int, 0);
  unsigned Expected = P.addGlobal("expected", Type::Int, 0);
  P.addHole("h", 8);
  unsigned T = P.addThread("f");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(Out),
                     P.add(P.global(In), P.holeValue(0))));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(Out), P.global(Expected)), "matches"));
  std::vector<synth::GlobalOverrides> Tests;
  for (int64_t X = 1; X < 6; ++X)
    Tests.push_back({{In, X}, {Expected, 2 * X}});
  SequentialCegis C(P, Tests);
  CegisResult R = C.run();
  EXPECT_FALSE(R.Stats.Resolvable);
}

TEST(SequentialCegis, FewObservationsSuffice) {
  // The AES observation of Section 5: CEGIS needs only a handful of the
  // input space. Here: 8-bit identity-plus-constant over 256 inputs.
  Program P;
  unsigned In = P.addGlobal("in", Type::Int, 0);
  unsigned Out = P.addGlobal("out", Type::Int, 0);
  unsigned Expected = P.addGlobal("expected", Type::Int, 0);
  unsigned H = P.addHole("h", 128);
  unsigned T = P.addThread("f");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(Out), P.add(P.global(In), P.holeValue(H))));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(Out), P.global(Expected)), "matches"));
  std::vector<synth::GlobalOverrides> Tests;
  for (int64_t X = -60; X < 60; X += 3)
    Tests.push_back({{In, X}, {Expected, P.wrap(X + 77, Type::Int)}});
  SequentialCegis C(P, Tests);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  EXPECT_EQ(R.Candidate[H], 77u);
  EXPECT_LE(R.Stats.Iterations, 5u);
}

TEST(InductiveSynth, ExcludeCandidateEnumeratesSolutions) {
  // h < 4 has four solutions under no observations; excluding them one by
  // one must enumerate all and then go unsat.
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned H = P.addHole("h", 4);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T), P.assign(P.locGlobal(X), P.holeValue(H)));
  flat::FlatProgram FP = flat::flatten(P);
  synth::InductiveSynth S(FP);
  std::set<uint64_t> Seen;
  HoleAssignment Cand;
  while (S.solve(Cand)) {
    EXPECT_TRUE(Seen.insert(Cand[H]).second) << "duplicate candidate";
    S.excludeCandidate(Cand);
  }
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(Cegis, ProposedCandidatesRespectStaticConstraints) {
  // Every candidate the synthesizer proposes for a quadratic reorder must
  // be a legal permutation (the no-duplicates constraints hold).
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  StmtRef R = P.reorder("r",
                        {P.assign(P.locGlobal(X), P.constInt(1)),
                         P.assign(P.locGlobal(X), P.constInt(2)),
                         P.assign(P.locGlobal(X), P.constInt(3))},
                        ReorderEncoding::Quadratic);
  P.setRoot(BodyId::thread(T), R);
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(2)), "2 last"));
  flat::FlatProgram FP = flat::flatten(P);
  synth::InductiveSynth Synth(FP);
  HoleAssignment Cand;
  std::set<std::vector<uint64_t>> Orders;
  while (Synth.solve(Cand)) {
    std::vector<uint64_t> Order = {Cand[R->ReorderHoles[0]],
                                   Cand[R->ReorderHoles[1]],
                                   Cand[R->ReorderHoles[2]]};
    std::set<uint64_t> Unique(Order.begin(), Order.end());
    EXPECT_EQ(Unique.size(), 3u) << "duplicate order index proposed";
    EXPECT_TRUE(Orders.insert(Order).second);
    Synth.excludeCandidate(Cand);
  }
  EXPECT_EQ(Orders.size(), 6u) << "exactly the 3! legal orders";
}

TEST(Cegis, ResolvedReorderSatisfiesSpecConcretely) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.reorder("r",
                      {P.assign(P.locGlobal(X), P.constInt(1)),
                       P.assign(P.locGlobal(X), P.constInt(2)),
                       P.assign(P.locGlobal(X), P.constInt(3))},
                      ReorderEncoding::Quadratic));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(2)), "2 last"));
  ConcurrentCegis C(P);
  CegisResult R = C.run();
  ASSERT_TRUE(R.Stats.Resolvable);
  exec::Machine M(C.flatProgram(), R.Candidate);
  exec::State S = M.initialState();
  exec::Violation V;
  ASSERT_TRUE(M.runToCompletion(S, M.prologueCtx(), V));
  ASSERT_TRUE(M.runToCompletion(S, 0, V));
  ASSERT_TRUE(M.runToCompletion(S, M.epilogueCtx(), V));
}
