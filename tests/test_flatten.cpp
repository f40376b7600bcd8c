//===- tests/test_flatten.cpp - if-conversion tests ------------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "benchmarks/DList.h"
#include "benchmarks/LazySet.h"
#include "benchmarks/Stack.h"
#include "benchmarks/Suite.h"
#include "benchmarks/Workload.h"
#include "desugar/Flatten.h"
#include "exec/Machine.h"
#include "frontend/Parser.h"
#include "ir/Printer.h"
#include "ir/ReorderExpand.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

using namespace psketch;
using namespace psketch::ir;
using namespace psketch::flat;

namespace {

/// Runs a single-thread flat program to completion on the caller's
/// machine and returns the final state (aborts the test on violation).
/// The machine must outlive the returned state: a State reads through
/// its Machine's layout.
exec::State runSingle(const exec::Machine &M) {
  exec::State S = M.initialState();
  exec::Violation V;
  EXPECT_TRUE(M.runToCompletion(S, M.prologueCtx(), V)) << V.Label;
  for (unsigned T = 0; T < M.numThreads(); ++T)
    EXPECT_TRUE(M.runToCompletion(S, T, V)) << V.Label;
  EXPECT_TRUE(M.runToCompletion(S, M.epilogueCtx(), V)) << V.Label;
  return S;
}

} // namespace

TEST(Flatten, StraightLineProducesOneStepPerStatement) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.seq({P.assign(P.locGlobal(X), P.constInt(1)),
                   P.assign(P.locGlobal(X), P.constInt(2))}));
  FlatProgram FP = flatten(P);
  EXPECT_EQ(FP.Threads[0].Steps.size(), 2u);
  EXPECT_TRUE(FP.Threads[0].Steps[0].TouchesShared);
}

TEST(Flatten, IfIntroducesEvalStepAndTemps) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  size_t LocalsBefore = P.body(BodyId::thread(T)).Locals.size();
  P.setRoot(BodyId::thread(T),
            P.ifS(P.eq(P.global(X), P.constInt(0)),
                  P.assign(P.locGlobal(X), P.constInt(1)),
                  P.assign(P.locGlobal(X), P.constInt(2))));
  FlatProgram FP = flatten(P);
  // eval step + then step + else step
  EXPECT_EQ(FP.Threads[0].Steps.size(), 3u);
  EXPECT_EQ(P.body(BodyId::thread(T)).Locals.size(), LocalsBefore + 2);
  EXPECT_NE(FP.Threads[0].Steps[1].DynGuard, nullptr);
  EXPECT_NE(FP.Threads[0].Steps[2].DynGuard, nullptr);
}

TEST(Flatten, HoleOnlyIfStaysStatic) {
  Program P;
  unsigned H = P.addHole("h", 2);
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.ifS(P.eq(P.holeValue(H), P.constInt(1)),
                  P.assign(P.locGlobal(X), P.constInt(1))));
  FlatProgram FP = flatten(P);
  // No eval step: the guard is a static (hole-only) condition.
  ASSERT_EQ(FP.Threads[0].Steps.size(), 1u);
  EXPECT_NE(FP.Threads[0].Steps[0].StaticGuard, nullptr);
  EXPECT_EQ(FP.Threads[0].Steps[0].DynGuard, nullptr);
}

TEST(Flatten, BranchConditionEvaluatedOnce) {
  // if (x == 0) x = 1; else y = 1;  -- the then-arm falsifies the
  // condition; the else-arm must NOT also fire.
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned Y = P.addGlobal("y", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.ifS(P.eq(P.global(X), P.constInt(0)),
                  P.assign(P.locGlobal(X), P.constInt(1)),
                  P.assign(P.locGlobal(Y), P.constInt(1))));
  FlatProgram FP = flatten(P);
  exec::Machine M(FP, {});
  exec::State S = runSingle(M);
  EXPECT_EQ(S.global(M.globalOffset(X)), 1);
  EXPECT_EQ(S.global(M.globalOffset(Y)), 0);
}

TEST(Flatten, AtomicIfConditionCapturedOnce) {
  // The same both-arms hazard inside an atomic section.
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned Y = P.addGlobal("y", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.atomic(P.ifS(P.eq(P.global(X), P.constInt(0)),
                           P.assign(P.locGlobal(X), P.constInt(1)),
                           P.assign(P.locGlobal(Y), P.constInt(1)))));
  FlatProgram FP = flatten(P);
  ASSERT_EQ(FP.Threads[0].Steps.size(), 1u); // one atomic step
  exec::Machine M(FP, {});
  exec::State S = runSingle(M);
  EXPECT_EQ(S.global(M.globalOffset(X)), 1);
  EXPECT_EQ(S.global(M.globalOffset(Y)), 0);
}

TEST(Flatten, WhileUnrollsAndBoundAsserts) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.whileS(P.lt(P.global(X), P.constInt(3)),
                     P.assign(P.locGlobal(X),
                              P.add(P.global(X), P.constInt(1))),
                     /*UnrollBound=*/5));
  FlatProgram FP = flatten(P);
  // 5 x (eval + body) + bound assert
  EXPECT_EQ(FP.Threads[0].Steps.size(), 11u);
  exec::Machine M(FP, {});
  exec::State S = runSingle(M);
  EXPECT_EQ(S.global(M.globalOffset(X)), 3);
}

TEST(Flatten, WhileBoundViolationDetected) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.whileS(P.lt(P.global(X), P.constInt(10)),
                     P.assign(P.locGlobal(X),
                              P.add(P.global(X), P.constInt(1))),
                     /*UnrollBound=*/3));
  FlatProgram FP = flatten(P);
  exec::Machine M(FP, {});
  exec::State S = M.initialState();
  exec::Violation V;
  EXPECT_FALSE(M.runToCompletion(S, 0, V));
  EXPECT_EQ(V.VKind, exec::Violation::Kind::AssertFail);
  EXPECT_NE(V.Label.find("loop bound"), std::string::npos);
}

TEST(Flatten, SwapCapturesValueBeforeOverwrite) {
  // tmp = AtomicSwap(x, tmp + 1): the value must use the OLD tmp.
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 10);
  unsigned T = P.addThread("t");
  unsigned LTmp = P.addLocal(BodyId::thread(T), "tmp", Type::Int, 5);
  P.setRoot(BodyId::thread(T),
            P.swap("", P.locLocal(LTmp), {P.locGlobal(X)},
                   P.add(P.local(LTmp, Type::Int), P.constInt(1))));
  FlatProgram FP = flatten(P);
  exec::Machine M(FP, {});
  exec::State S = runSingle(M);
  EXPECT_EQ(S.local(0, LTmp), 10); // old x
  EXPECT_EQ(S.global(M.globalOffset(X)), 6); // old tmp + 1
}

TEST(Flatten, SwapCapturesAddressBeforeOverwrite) {
  // tmp = AtomicSwap(tmp.next, v): the address uses the OLD tmp.
  Program P(8, 3);
  unsigned FNext = P.addField("next", Type::Ptr);
  unsigned T = P.addThread("t");
  unsigned LA = P.addLocal(BodyId::thread(T), "a", Type::Ptr, 0);
  unsigned LB = P.addLocal(BodyId::thread(T), "b", Type::Ptr, 0);
  ExprRef A = P.local(LA, Type::Ptr);
  P.setRoot(
      BodyId::thread(T),
      P.seq({P.alloc(P.locLocal(LA)), // a = node 1
             P.alloc(P.locLocal(LB)), // b = node 2
             // a = AtomicSwap(a.next, b): reads old a.next (null) into a,
             // and stores b into node1.next (via the captured address).
             P.swap("", P.locLocal(LA), {P.locField(A, FNext)},
                    P.local(LB, Type::Ptr))}));
  FlatProgram FP = flatten(P);
  exec::Machine M(FP, {});
  exec::State S = runSingle(M);
  EXPECT_EQ(S.local(0, LA), 0);               // old a.next was null
  EXPECT_EQ(S.heap(0 * P.fields().size() + FNext), 2); // node1.next = b
}

TEST(Flatten, CondAtomicBecomesWaitStep) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.condAtomic(P.eq(P.global(X), P.constInt(1)),
                         P.assign(P.locGlobal(X), P.constInt(2))));
  FlatProgram FP = flatten(P);
  ASSERT_EQ(FP.Threads[0].Steps.size(), 1u);
  EXPECT_NE(FP.Threads[0].Steps[0].WaitCond, nullptr);
  EXPECT_TRUE(FP.Threads[0].Steps[0].TouchesShared);
}

TEST(Flatten, LocalOnlyStepsAreInvisible) {
  Program P;
  unsigned T = P.addThread("t");
  unsigned L = P.addLocal(BodyId::thread(T), "l", Type::Int, 0);
  unsigned X = P.addGlobal("x", Type::Int, 0);
  P.setRoot(BodyId::thread(T),
            P.seq({P.assign(P.locLocal(L), P.constInt(1)),
                   P.assign(P.locGlobal(X), P.local(L, Type::Int))}));
  FlatProgram FP = flatten(P);
  ASSERT_EQ(FP.Threads[0].Steps.size(), 2u);
  EXPECT_FALSE(FP.Threads[0].Steps[0].TouchesShared);
  EXPECT_TRUE(FP.Threads[0].Steps[1].TouchesShared);
}

TEST(Flatten, ReorderExpandsToGuardedCopies) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.reorder("r",
                      {P.assign(P.locGlobal(X), P.constInt(1)),
                       P.assign(P.locGlobal(X), P.constInt(2))},
                      ReorderEncoding::Quadratic));
  FlatProgram FP = flatten(P);
  EXPECT_EQ(FP.Threads[0].Steps.size(), 4u); // k^2 guarded copies
  for (const Step &S : FP.Threads[0].Steps)
    EXPECT_NE(S.StaticGuard, nullptr);
}

TEST(Flatten, ChoiceAssignIsOneAtomicStep) {
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned Y = P.addGlobal("y", Type::Int, 0);
  unsigned T = P.addThread("t");
  P.setRoot(BodyId::thread(T),
            P.choiceAssign("c", {P.locGlobal(X), P.locGlobal(Y)},
                           P.constInt(9)));
  FlatProgram FP = flatten(P);
  ASSERT_EQ(FP.Threads[0].Steps.size(), 1u);
  EXPECT_EQ(FP.Threads[0].Steps[0].Ops.size(), 2u);
  // Selecting target 1 writes y, not x.
  exec::Machine M(FP, {1});
  exec::State S = runSingle(M);
  EXPECT_EQ(S.global(M.globalOffset(X)), 0);
  EXPECT_EQ(S.global(M.globalOffset(Y)), 9);
}

namespace {

/// Builds `reorder { g[0..2] = marks }` recording execution order into a
/// global array via an index counter; returns the written order.
std::vector<int64_t> executedOrder(ReorderEncoding Enc,
                                   const HoleAssignment &H) {
  Program P;
  unsigned Order = P.addGlobalArray("order", Type::Int, 3, -1);
  unsigned Cursor = P.addGlobal("cursor", Type::Int, 0);
  unsigned T = P.addThread("t");
  auto Mark = [&](int64_t K) {
    return P.atomic(
        P.seq({P.assign(P.locGlobalAt(Order, P.global(Cursor)),
                        P.constInt(K)),
               P.assign(P.locGlobal(Cursor),
                        P.add(P.global(Cursor), P.constInt(1)))}));
  };
  P.setRoot(BodyId::thread(T),
            P.reorder("r", {Mark(0), Mark(1), Mark(2)}, Enc));
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, H);
  exec::State S = M.initialState();
  exec::Violation V;
  EXPECT_TRUE(M.runToCompletion(S, 0, V)) << V.Label;
  std::vector<int64_t> Result;
  for (int I = 0; I < 3; ++I)
    Result.push_back(S.global(M.globalOffset(Order) + I));
  return Result;
}

} // namespace

TEST(Flatten, QuadraticReorderExecutesChosenPermutation) {
  // order[i] = j means slot i runs statement j.
  std::vector<uint64_t> Perm = {2, 0, 1};
  HoleAssignment H = Perm;
  EXPECT_EQ(executedOrder(ReorderEncoding::Quadratic, H),
            (std::vector<int64_t>{2, 0, 1}));
}

TEST(Flatten, ExponentialReorderRealizesAllPermutations) {
  // Sweep every insertion-hole assignment; each run must produce a
  // permutation, and together they must cover all 3! orders.
  std::set<std::vector<int64_t>> Seen;
  for (uint64_t I1 = 0; I1 < 2; ++I1)
    for (uint64_t I2 = 0; I2 < 4; ++I2) {
      std::vector<int64_t> Order =
          executedOrder(ReorderEncoding::Exponential, {I1, I2});
      std::set<int64_t> Unique(Order.begin(), Order.end());
      ASSERT_EQ(Unique.size(), 3u) << "not a permutation";
      Seen.insert(Order);
    }
  EXPECT_EQ(Seen.size(), 6u);
}

//===----------------------------------------------------------------------===//
// Step labels: stepLabel() renders what the flattener once stored.
//===----------------------------------------------------------------------===//

namespace {

/// The step labels as the flattener rendered them eagerly before step
/// text became lazy: the same walk over the IR as flattenStmt, with the
/// same printing, one label per emitted step.
class EagerLabels {
public:
  EagerLabels(Program &P, BodyId Cur) : P(P), Cur(Cur) {}

  std::vector<std::string> run() {
    Labels.clear();
    if (StmtRef Root = P.body(Cur).Root)
      walk(Root);
    return Labels;
  }

private:
  Program &P;
  BodyId Cur;
  std::vector<std::string> Labels;

  std::string labelOf(StmtRef S) {
    Printer Pr(P);
    std::string Text = Pr.stmt(S, Cur);
    size_t Newline = Text.find('\n');
    if (Newline != std::string::npos)
      Text = Text.substr(0, Newline);
    return trim(Text);
  }

  void walk(StmtRef S) {
    if (!S)
      return;
    Printer Pr(P);
    switch (S->Kind) {
    case StmtKind::Nop:
      return;
    case StmtKind::Seq:
      for (StmtRef Child : S->Children)
        walk(Child);
      return;
    case StmtKind::Assign:
    case StmtKind::ChoiceAssign:
    case StmtKind::Swap:
    case StmtKind::Assert:
    case StmtKind::Alloc:
    case StmtKind::CondAtomic:
      Labels.push_back(labelOf(S));
      return;
    case StmtKind::Atomic:
      Labels.push_back("atomic " + labelOf(S->Children[0]));
      return;
    case StmtKind::If: {
      bool HasElse = S->Children[1] && S->Children[1]->Kind != StmtKind::Nop;
      if (!S->Cond->isHoleOnly())
        Labels.push_back("if (" + Pr.expr(S->Cond, Cur) + ")");
      walk(S->Children[0]);
      if (HasElse)
        walk(S->Children[1]);
      return;
    }
    case StmtKind::While: {
      std::string CondText = Pr.expr(S->Cond, Cur);
      for (unsigned K = 0; K < S->UnrollBound; ++K) {
        Labels.push_back(format("while#%u (%s)", K, CondText.c_str()));
        walk(S->Children[0]);
      }
      Labels.push_back(format("while-bound (%s)", CondText.c_str()));
      return;
    }
    case StmtKind::Reorder:
      for (const ReorderEntry &E : expandReorder(P, S))
        walk(E.Child);
      return;
    }
  }
};

using Builder = std::function<std::unique_ptr<Program>()>;

/// Every Figure 9 row, the extension rows and the example sketches.
std::vector<std::pair<std::string, Builder>> labelSubjects() {
  std::vector<std::pair<std::string, Builder>> Out;
  for (const bench::SuiteEntry &E : bench::paperSuite())
    Out.push_back({E.Sketch + " " + E.Test, E.Build});
  for (const char *Pat : {"p(po|po)", "pp(o|o)", "p(pp|oo)", "(pp|oo)o"})
    Out.push_back({std::string("stack ") + Pat, [Pat] {
                     return bench::buildStack(bench::parseWorkload(Pat));
                   }});
  for (const char *Pat : {"i(i|i)", "(ii|i)", "(i|i)i"})
    Out.push_back({std::string("dlist ") + Pat, [Pat] {
                     return bench::buildDList(bench::parseWorkload(Pat));
                   }});
  for (const char *Pat : {"ar(aa|rr)", "ar(ar|ar)"})
    Out.push_back({std::string("lazyset-full ") + Pat, [Pat] {
                     bench::LazySetOptions O;
                     O.SketchAdd = true;
                     return bench::buildLazySet(bench::parseWorkload(Pat), O);
                   }});
  for (const auto &Entry :
       std::filesystem::directory_iterator(PSKETCH_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".psk")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Text;
    Text << In.rdbuf();
    std::string Source = Text.str();
    Out.push_back({Entry.path().filename().string(), [Source] {
                     return std::move(frontend::parseProgram(Source).Program);
                   }});
  }
  return Out;
}

/// Machine context numbering: threads 0..N-1, the prologue N, the
/// epilogue N+1.
BodyId bodyIdOf(const Program &P, unsigned Ctx) {
  unsigned N = P.numThreads();
  return Ctx < N ? BodyId::thread(Ctx)
                 : Ctx == N ? BodyId::prologue() : BodyId::epilogue();
}

} // namespace

TEST(Flatten, StepLabelsRenderAsBefore) {
  unsigned Subjects = 0, Psk = 0;
  size_t Steps = 0;
  for (const auto &[Name, Build] : labelSubjects()) {
    // The reference walks a fresh copy that was never flattened.
    std::unique_ptr<Program> Ref = Build();
    std::unique_ptr<Program> P = Build();
    ASSERT_TRUE(Ref && P) << Name;
    FlatProgram FP = flatten(*P);
    for (unsigned Ctx = 0; Ctx < P->numThreads() + 2; ++Ctx) {
      std::vector<std::string> Want =
          EagerLabels(*Ref, bodyIdOf(*Ref, Ctx)).run();
      const FlatBody &B = Ctx < P->numThreads() ? FP.Threads[Ctx]
                          : Ctx == P->numThreads() ? FP.Prologue
                                                   : FP.Epilogue;
      ASSERT_EQ(B.Steps.size(), Want.size()) << Name << " ctx " << Ctx;
      for (unsigned Pc = 0; Pc < B.Steps.size(); ++Pc)
        ASSERT_EQ(stepLabel(FP, Ctx, Pc), Want[Pc])
            << Name << " ctx " << Ctx << " pc " << Pc;
      Steps += B.Steps.size();
    }
    ++Subjects;
    Psk += Name.size() > 4 && Name.substr(Name.size() - 4) == ".psk";
  }
  EXPECT_GE(Subjects, 35u);
  EXPECT_GE(Psk, 4u) << "examples/*.psk not found";
  EXPECT_GT(Steps, 1000u);

  // Three literal renderings of dlist i(i|i), whose prologue (context 2)
  // inserts node n0 with a bounded retry loop.
  auto P = bench::buildDList(bench::parseWorkload("i(i|i)"));
  FlatProgram FP = flatten(*P);
  EXPECT_EQ(stepLabel(FP, 2, 31), "while-bound (!done0)");
  EXPECT_EQ(stepLabel(FP, 2, 6),
            "atomic done0 = (head == {| n0 | n0.next | n0.prev |});");
  EXPECT_EQ(stepLabel(FP, 0, 30), "if ({| (n1.next != null) | true | false |})");
}
