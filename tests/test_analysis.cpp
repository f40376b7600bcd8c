//===- tests/test_analysis.cpp - static analyzer tests ----------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Unit tests for each analysis pass, the frontend validator, the split
// between the CEGIS pre-pass (analyze) and the diagnostics (lint), and
// the soundness property the pre-pass promises: running CEGIS with the
// pre-pass on must give the same verdict as running it with the pre-pass
// off, on every sketch.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "cegis/Cegis.h"
#include "desugar/Flatten.h"
#include "exec/Machine.h"
#include "frontend/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

using namespace psketch;
using namespace psketch::ir;
using namespace psketch::analysis;

namespace {

bool hasBan(const AnalysisResult &A, unsigned Hole, uint64_t Value) {
  for (const HoleValueBan &B : A.Bans)
    if (B.HoleId == Hole && B.Value == Value)
      return true;
  return false;
}

bool hasDiag(const std::vector<Diagnostic> &Diags, const std::string &Pass,
             Severity Sev, const std::string &Needle) {
  for (const Diagnostic &D : Diags)
    if (D.Pass == Pass && D.Sev == Sev &&
        D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

AnalysisResult analyzeProgram(Program &P) {
  flat::FlatProgram FP = flat::flatten(P);
  return analyze(P, FP);
}

std::vector<Diagnostic> lintProgram(Program &P) {
  flat::FlatProgram FP = flat::flatten(P);
  return lint(P, FP);
}

} // namespace

//===----------------------------------------------------------------------===//
// Diagnostics.
//===----------------------------------------------------------------------===//

TEST(Diagnostic, Render) {
  Diagnostic D{Severity::Warning, "lint", "something is off",
               "thread 0, step 3: x = tmp"};
  EXPECT_EQ(render(D),
            "warning: [lint] something is off (at thread 0, step 3: x = tmp)");
  Diagnostic NoWhere{Severity::Error, "frontend", "bad input", ""};
  EXPECT_EQ(render(NoWhere), "error: [frontend] bad input");
}

//===----------------------------------------------------------------------===//
// Frontend validation.
//===----------------------------------------------------------------------===//

TEST(Validate, CleanProgramHasNoErrors) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(X),
                     P.choose("pick", {P.constInt(1), P.constInt(2)})));
  EXPECT_TRUE(validateProgram(P).empty());
}

TEST(Validate, FlagsGeneratorHoleMismatch) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned H = P.addHole("h", 2);
  unsigned T = P.addThread("t");
  // Three alternatives bound to a two-choice hole.
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(X),
                     P.choiceOf(H, {P.constInt(1), P.constInt(2),
                                    P.constInt(3)})));
  std::vector<Diagnostic> Diags = validateProgram(P);
  ASSERT_FALSE(Diags.empty());
  EXPECT_TRUE(hasDiag(Diags, "frontend", Severity::Error, "alternatives"));

  // An int and a bool alternative behind one two-choice hole.
  Program Q;
  unsigned Y = Q.addGlobal("y", Type::Int, 0);
  unsigned G = Q.addHole("g", 2);
  unsigned U = Q.addThread("t");
  Q.setRoot(BodyId::thread(U),
            Q.assign(Q.locGlobal(Y),
                     Q.choiceOf(G, {Q.constInt(1), Q.constBool(true)})));
  EXPECT_TRUE(hasDiag(validateProgram(Q), "frontend", Severity::Error,
                      "disagree on type"));
}

TEST(Validate, FlagsUndefinedHoleReference) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T), P.assign(P.locGlobal(X), P.holeValue(7)));
  std::vector<Diagnostic> Diags = validateProgram(P);
  ASSERT_FALSE(Diags.empty());
  EXPECT_TRUE(hasDiag(Diags, "frontend", Severity::Error, "undefined hole"));
}

TEST(Validate, FlagsLoopInsideAtomic) {
  // An atomic block is one flat step: a loop, a wait or a reorder inside
  // it (at any depth, here under an if) is an error, not a dropped
  // statement or a flattener abort.
  auto Check = [](const char *Needle, auto MakeInner) {
    Program P;
    unsigned X = P.addGlobal("x", Type::Int, 0);
    unsigned T = P.addThread("t");
    StmtRef Inner = MakeInner(P, X);
    P.setRoot(BodyId::thread(T),
              P.atomic(P.ifS(P.eq(P.global(X), P.constInt(0)), Inner)));
    std::vector<Diagnostic> Diags = validateProgram(P);
    EXPECT_TRUE(hasDiag(Diags, "frontend", Severity::Error, Needle))
        << Needle;
  };
  Check("loop inside an atomic block", [](Program &P, unsigned X) {
    return P.whileS(P.eq(P.global(X), P.constInt(0)),
                    P.assign(P.locGlobal(X), P.constInt(1)), 2);
  });
  Check("wait inside an atomic block", [](Program &P, unsigned X) {
    return P.condAtomic(P.eq(P.global(X), P.constInt(1)), P.nop());
  });
  Check("reorder inside an atomic block", [](Program &P, unsigned X) {
    return P.reorder("r", {P.assign(P.locGlobal(X), P.constInt(1)),
                           P.assign(P.locGlobal(X), P.constInt(2))});
  });

  // The same statements outside an atomic block are well-formed.
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.seq({P.whileS(P.eq(P.global(X), P.constInt(0)),
                            P.assign(P.locGlobal(X), P.constInt(1)), 2),
                   P.condAtomic(P.eq(P.global(X), P.constInt(1)),
                                P.atomic(P.assign(P.locGlobal(X),
                                                  P.constInt(2))))}));
  EXPECT_TRUE(validateProgram(P).empty());
}

//===----------------------------------------------------------------------===//
// Hole-space pruning.
//===----------------------------------------------------------------------===//

TEST(Prune, PinsUnusedHole) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned H = P.addHole("unused", 4);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T), P.assign(P.locGlobal(X), P.constInt(1)));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(1)), "x"));

  AnalysisResult A = analyzeProgram(P);
  EXPECT_TRUE(hasBan(A, H, 1));
  EXPECT_TRUE(hasBan(A, H, 2));
  EXPECT_TRUE(hasBan(A, H, 3));
  EXPECT_FALSE(hasBan(A, H, 0)) << "the canonical value must survive";
  EXPECT_NEAR(A.SpaceLog10Delta, std::log10(0.25), 1e-9);
  EXPECT_TRUE(hasDiag(A.Diags, "prune", Severity::Warning, "never used"));
}

TEST(Prune, BansEquivalentGeneratorAlternative) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  // Alternatives 0 and 1 are the same expression; 2 differs.
  ExprRef Pick = P.choose("pick", {P.add(P.global(X), P.constInt(1)),
                                   P.add(P.global(X), P.constInt(1)),
                                   P.add(P.global(X), P.constInt(2))});
  unsigned H = static_cast<unsigned>(P.holes().size()) - 1;
  P.setRoot(BodyId::thread(T), P.assign(P.locGlobal(X), Pick));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(1)), "x"));

  AnalysisResult A = analyzeProgram(P);
  EXPECT_TRUE(hasBan(A, H, 1)) << "alternative 1 duplicates alternative 0";
  EXPECT_FALSE(hasBan(A, H, 2)) << "alternative 2 is genuinely different";
  EXPECT_FALSE(hasBan(A, H, 0));
  EXPECT_FALSE(A.ProvedUnresolvable);
}

TEST(Prune, SharedHoleWithDivergentCallSitesIsKept) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned Y = P.addGlobal("y", Type::Int, 0);
  unsigned H = P.addHole("shared", 2);
  unsigned T = P.addThread("t");
  // Call site 1: both alternatives identical. Call site 2: they differ.
  // The shared hole must NOT be pruned — site 2 distinguishes its values.
  P.setRoot(
      BodyId::thread(T),
      P.seq({P.assign(P.locGlobal(X),
                      P.choiceOf(H, {P.constInt(5), P.constInt(5)})),
             P.assign(P.locGlobal(Y),
                      P.choiceOf(H, {P.constInt(1), P.constInt(2)}))}));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(Y), P.constInt(1)), "y"));

  AnalysisResult A = analyzeProgram(P);
  EXPECT_FALSE(hasBan(A, H, 1))
      << "whole-program comparison must see the second call site";
}

TEST(Prune, CanonicalizesReorderOfIdenticalStatements) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  auto Inc = [&] {
    return P.assign(P.locGlobal(X), P.add(P.global(X), P.constInt(1)));
  };
  P.setRoot(BodyId::thread(T), P.reorder("r", {Inc(), Inc(), Inc()}));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(3)), "x"));

  AnalysisResult A = analyzeProgram(P);
  // 3! = 6 legal assignments all realize the same execution; one stays.
  EXPECT_EQ(A.Exclusions.size(), 5u);
  EXPECT_NEAR(A.SpaceLog10Delta, -std::log10(6.0), 1e-9);
  EXPECT_TRUE(hasDiag(A.Diags, "prune", Severity::Note, "redundant"));

  // And the canonicalized sketch still resolves.
  Program P2;
  unsigned X2 = P2.addGlobal("x", Type::Int, 0);
  unsigned T2 = P2.addThread("t");
  auto Inc2 = [&] {
    return P2.assign(P2.locGlobal(X2), P2.add(P2.global(X2), P2.constInt(1)));
  };
  P2.setRoot(BodyId::thread(T2), P2.reorder("r", {Inc2(), Inc2(), Inc2()}));
  P2.setRoot(BodyId::epilogue(),
             P2.assertS(P2.eq(P2.global(X2), P2.constInt(3)), "x"));
  cegis::ConcurrentCegis C(P2);
  cegis::CegisResult R = C.run();
  EXPECT_TRUE(R.Stats.Resolvable);
  EXPECT_EQ(R.Stats.ExclusionConstraints, 5u);
}

//===----------------------------------------------------------------------===//
// Sketch lint.
//===----------------------------------------------------------------------===//

TEST(Lint, ConstantFalseAssertProvesUnresolvable) {
  Program P;
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.assertS(P.eq(P.constInt(1), P.constInt(2)), "impossible"));

  AnalysisResult A = analyzeProgram(P);
  EXPECT_TRUE(A.ProvedUnresolvable);
  EXPECT_TRUE(hasDiag(A.Diags, "lint", Severity::Error, "constant-false"));
}

TEST(Lint, ConstantTrueAssertWarns) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.seq({P.assign(P.locGlobal(X), P.constInt(1)),
                   P.assertS(P.le(P.constInt(0), P.constInt(3)), "vacuous")}));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(1)), "x"));

  AnalysisResult A = analyzeProgram(P);
  EXPECT_FALSE(A.ProvedUnresolvable);
  EXPECT_TRUE(hasDiag(A.Diags, "lint", Severity::Warning, "constant-true"));
}

TEST(Lint, FlagsUnobservableHole) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  BodyId B = BodyId::thread(T);
  unsigned Dead = P.addLocal(B, "dead", Type::Int, 0);
  // The generator result lands in a local nothing reads.
  P.setRoot(B, P.seq({P.assign(P.locLocal(Dead),
                               P.choose("pick", {P.constInt(1), P.constInt(2)})),
                      P.assign(P.locGlobal(X), P.constInt(1))}));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(1)), "x"));

  std::vector<Diagnostic> Diags = lintProgram(P);
  EXPECT_TRUE(hasDiag(Diags, "lint", Severity::Warning, "observable"));
}

TEST(Lint, ObservableHoleIsNotFlagged) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  BodyId B = BodyId::thread(T);
  unsigned Tmp = P.addLocal(B, "tmp", Type::Int, 0);
  // Same shape, but the local flows into a shared write.
  P.setRoot(B, P.seq({P.assign(P.locLocal(Tmp),
                               P.choose("pick", {P.constInt(1), P.constInt(2)})),
                      P.assign(P.locGlobal(X), P.local(Tmp, Type::Int))}));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.le(P.constInt(1), P.global(X)), "x"));

  std::vector<Diagnostic> Diags = lintProgram(P);
  EXPECT_FALSE(hasDiag(Diags, "lint", Severity::Warning, "observable"));
}

TEST(Lint, WarnsWhenSketchHasNoAsserts) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T), P.assign(P.locGlobal(X), P.constInt(1)));

  std::vector<Diagnostic> Diags = lintProgram(P);
  EXPECT_TRUE(hasDiag(Diags, "lint", Severity::Warning, "no asserts"));
}

//===----------------------------------------------------------------------===//
// The broken fixture (shared with `psketch_tool --lint`).
//===----------------------------------------------------------------------===//

TEST(Fixture, BrokenSketchYieldsTrueDiagnostics) {
  std::ifstream File(std::string(PSKETCH_TEST_DIR) + "/fixtures/broken.psk");
  ASSERT_TRUE(File.good()) << "fixture missing";
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  std::string Source = Buffer.str();
  frontend::ParseResult Parsed = frontend::parseProgram(Source);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;

  Program &P = *Parsed.Program;
  EXPECT_TRUE(validateProgram(P).empty());
  AnalysisResult A = analyzeProgram(P);
  EXPECT_TRUE(A.ProvedUnresolvable) << "the wait can never unblock";
  EXPECT_TRUE(hasDiag(A.Diags, "absint", Severity::Error, "can never fire"));
  EXPECT_FALSE(hasDiag(A.Diags, "lint", Severity::Warning, "observable"))
      << "lint-only findings stay out of the CEGIS pre-pass";

  std::vector<Diagnostic> Diags = lintProgram(P);
  EXPECT_TRUE(hasDiag(Diags, "absint", Severity::Error, "can never fire"));
  EXPECT_TRUE(hasDiag(Diags, "lint", Severity::Warning, "observable"));

  // ConcurrentCegis must answer NO with zero verifier calls.
  frontend::ParseResult Fresh = frontend::parseProgram(Source);
  ASSERT_TRUE(Fresh.ok()) << Fresh.Error;
  cegis::ConcurrentCegis C(*Fresh.Program);
  cegis::CegisResult R = C.run();
  EXPECT_FALSE(R.Stats.Resolvable);
  EXPECT_FALSE(R.Stats.Aborted);
  EXPECT_EQ(R.Stats.Iterations, 0u) << "proved without a verifier call";
}

//===----------------------------------------------------------------------===//
// Soundness property: pre-screen on/off verdict agreement on randomized
// sketches, and concrete confirmation that banned equivalent values
// behave identically under exec::Machine.
//===----------------------------------------------------------------------===//

namespace {

/// Builds a small random two-thread sketch from \p Seed. Holes stay tiny
/// so both CEGIS runs finish in milliseconds.
std::unique_ptr<Program> buildRandomSketch(uint64_t Seed) {
  Rng R(Seed);
  auto P = std::make_unique<Program>();
  unsigned X = P->addGlobal("x", Type::Int, 0);
  unsigned Y = P->addGlobal("y", Type::Int, 0);
  unsigned Gate = P->addGlobal("gate", Type::Int, 0);

  for (unsigned T = 0; T < 2; ++T) {
    unsigned Id = P->addThread("t");
    BodyId B = BodyId::thread(Id);
    unsigned Tmp = P->addLocal(B, "tmp", Type::Int, 0);
    std::vector<StmtRef> Stmts;
    unsigned NumStmts = 1 + static_cast<unsigned>(R.below(3));
    for (unsigned S = 0; S < NumStmts; ++S) {
      unsigned Target = R.below(2) ? X : Y;
      switch (R.below(5)) {
      case 0: // plain constant store
        Stmts.push_back(P->assign(P->locGlobal(Target),
                                  P->constInt(static_cast<int64_t>(R.below(3)))));
        break;
      case 1: // generator store (sometimes with duplicate alternatives)
        Stmts.push_back(P->assign(
            P->locGlobal(Target),
            P->choose("g", {P->constInt(static_cast<int64_t>(R.below(2))),
                            P->constInt(static_cast<int64_t>(R.below(2))),
                            P->add(P->global(Target), P->constInt(1))})));
        break;
      case 2: // atomic increment
        Stmts.push_back(P->atomic(P->assign(
            P->locGlobal(Target), P->add(P->global(Target), P->constInt(1)))));
        break;
      case 3: // two-step RMW through a local
        Stmts.push_back(P->assign(P->locLocal(Tmp), P->global(Target)));
        Stmts.push_back(P->assign(
            P->locGlobal(Target),
            P->add(P->local(Tmp, Type::Int), P->constInt(1))));
        break;
      case 4: // hole-guarded wait on the gate; thread 1 may open it
        if (T == 1)
          Stmts.push_back(P->assign(P->locGlobal(Gate), P->constInt(1)));
        else
          Stmts.push_back(P->ifS(
              P->eq(P->holeValue(P->addHole("w", 2)), P->constInt(1)),
              P->condAtomic(P->eq(P->global(Gate), P->constInt(1)),
                            P->nop())));
        break;
      }
    }
    P->setRoot(B, P->seq(std::move(Stmts)));
  }
  // A loose spec: x must end within a small range some candidates hit.
  P->setRoot(BodyId::epilogue(),
             P->assertS(P->le(P->global(X),
                              P->constInt(static_cast<int64_t>(R.below(4)))),
                        "bound"));
  return P;
}

} // namespace

TEST(Soundness, PrescreenPreservesVerdictsOnRandomSketches) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    auto POn = buildRandomSketch(Seed);
    auto POff = buildRandomSketch(Seed);

    cegis::CegisConfig On;
    On.MaxIterations = 100;
    cegis::CegisConfig Off = On;
    Off.Prescreen = false;

    cegis::ConcurrentCegis COn(*POn, On);
    cegis::CegisResult ROn = COn.run();
    cegis::ConcurrentCegis COff(*POff, Off);
    cegis::CegisResult ROff = COff.run();

    ASSERT_FALSE(ROn.Stats.Aborted) << "seed " << Seed;
    ASSERT_FALSE(ROff.Stats.Aborted) << "seed " << Seed;
    EXPECT_EQ(ROn.Stats.Resolvable, ROff.Stats.Resolvable)
        << "pre-screen changed the verdict for seed " << Seed;
    EXPECT_LE(ROn.Stats.Iterations, ROff.Stats.Iterations + 5)
        << "pre-screen should not materially slow seed " << Seed;
  }
}

TEST(Soundness, EquivalenceBansPointToIdenticalBehavior) {
  // For every equivalence ban the analyzer emits on the random sketches,
  // the banned value and its canonical representative must drive
  // exec::Machine to identical verdicts on the full program order.
  unsigned BansChecked = 0;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    auto P = buildRandomSketch(Seed);
    flat::FlatProgram FP = flat::flatten(*P);
    AnalysisResult A = analyze(*P, FP);
    for (const HoleValueBan &Ban : A.Bans) {
      // Find the smallest unbanned representative.
      uint64_t Rep = 0;
      while (hasBan(A, Ban.HoleId, Rep))
        ++Rep;
      ASSERT_LT(Rep, Ban.Value);

      HoleAssignment Banned(P->holes().size(), 0);
      HoleAssignment Canon(P->holes().size(), 0);
      Banned[Ban.HoleId] = Ban.Value;
      Canon[Ban.HoleId] = Rep;

      auto RunOnce = [&](const HoleAssignment &C) {
        exec::Machine M(FP, C);
        exec::State S = M.initialState();
        exec::Violation V;
        bool Ok = M.runToCompletion(S, M.prologueCtx(), V);
        for (unsigned T = 0; Ok && T < M.numThreads(); ++T)
          Ok = M.runToCompletion(S, T, V);
        if (Ok)
          Ok = M.runToCompletion(S, M.epilogueCtx(), V);
        return Ok;
      };
      EXPECT_EQ(RunOnce(Banned), RunOnce(Canon))
          << "seed " << Seed << ", hole " << Ban.HoleId << ", value "
          << Ban.Value;
      ++BansChecked;
    }
  }
  // The generator duplicates alternatives often enough that this property
  // is actually exercised.
  EXPECT_GT(BansChecked, 0u);
}
