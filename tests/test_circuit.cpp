//===- tests/test_circuit.cpp - gate graph and bitvector tests -------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "circuit/BitVec.h"
#include "circuit/CnfBuilder.h"
#include "circuit/Graph.h"
#include "support/Hash.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <string>

using namespace psketch;
using namespace psketch::circuit;

TEST(Graph, ConstantFolding) {
  Graph G;
  NodeRef A = G.mkInput("a");
  EXPECT_EQ(G.mkAnd(A, G.getTrue()), A);
  EXPECT_EQ(G.mkAnd(G.getTrue(), A), A);
  EXPECT_EQ(G.mkAnd(A, G.getFalse()), G.getFalse());
  EXPECT_EQ(G.mkAnd(A, A), A);
  EXPECT_EQ(G.mkAnd(A, ~A), G.getFalse());
  EXPECT_EQ(G.mkOr(A, G.getTrue()), G.getTrue());
  EXPECT_EQ(G.mkOr(A, G.getFalse()), A);
  EXPECT_EQ(G.mkXor(A, A), G.getFalse());
  EXPECT_EQ(G.mkXor(A, ~A), G.getTrue());
  EXPECT_EQ(G.mkIte(G.getTrue(), A, ~A), A);
  EXPECT_EQ(G.mkIte(G.getFalse(), A, ~A), ~A);
  EXPECT_EQ(G.mkIte(A, G.getTrue(), G.getFalse()), A);
}

TEST(Graph, StructuralHashing) {
  Graph G;
  NodeRef A = G.mkInput("a"), B = G.mkInput("b");
  NodeRef X = G.mkAnd(A, B);
  NodeRef Y = G.mkAnd(B, A); // commuted: must hash to the same node
  EXPECT_EQ(X, Y);
  size_t Before = G.numNodes();
  (void)G.mkAnd(A, B);
  EXPECT_EQ(G.numNodes(), Before);
}

TEST(Graph, EvaluateTruthTable) {
  Graph G;
  NodeRef A = G.mkInput("a"), B = G.mkInput("b");
  NodeRef AndAB = G.mkAnd(A, B);
  NodeRef XorAB = G.mkXor(A, B);
  for (int AV = 0; AV < 2; ++AV)
    for (int BV = 0; BV < 2; ++BV) {
      std::vector<bool> In = {AV != 0, BV != 0};
      EXPECT_EQ(G.evaluate(AndAB, In), AV && BV);
      EXPECT_EQ(G.evaluate(XorAB, In), (AV ^ BV) != 0);
      EXPECT_EQ(G.evaluate(~AndAB, In), !(AV && BV));
    }
}

TEST(Graph, AndAllOrAll) {
  Graph G;
  std::vector<NodeRef> Inputs;
  for (int I = 0; I < 5; ++I)
    Inputs.push_back(G.mkInput("x"));
  NodeRef All = G.mkAndAll(Inputs);
  NodeRef Any = G.mkOrAll(Inputs);
  std::vector<bool> AllTrue(5, true), OneFalse(5, true), AllFalse(5, false);
  OneFalse[3] = false;
  EXPECT_TRUE(G.evaluate(All, AllTrue));
  EXPECT_FALSE(G.evaluate(All, OneFalse));
  EXPECT_TRUE(G.evaluate(Any, OneFalse));
  EXPECT_FALSE(G.evaluate(Any, AllFalse));
  EXPECT_EQ(G.mkAndAll({}), G.getTrue());
  EXPECT_EQ(G.mkOrAll({}), G.getFalse());
}

namespace {

struct BvFixture {
  Graph G;
  unsigned Width;
  BitVec A, B;
  uint64_t AV, BV;
  std::vector<bool> Inputs;
  uint64_t Mask;

  BvFixture(Rng &R, unsigned W) : Width(W) {
    A = bvInput(G, W, "a");
    B = bvInput(G, W, "b");
    Mask = W == 64 ? ~0ull : ((1ull << W) - 1);
    AV = R.below(Mask + 1);
    BV = R.below(Mask + 1);
    Inputs.resize(2 * W);
    for (unsigned I = 0; I < W; ++I) {
      Inputs[I] = (AV >> I) & 1;
      Inputs[W + I] = (BV >> I) & 1;
    }
  }

  int64_t sext(uint64_t V) const {
    return static_cast<int64_t>(V << (64 - Width)) >> (64 - Width);
  }
};

} // namespace

class BitVecOpsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVecOpsTest, MatchesConcreteArithmetic) {
  unsigned W = GetParam();
  Rng R(W * 1337 + 5);
  for (int Iter = 0; Iter < 60; ++Iter) {
    BvFixture F(R, W);
    Graph &G = F.G;
    EXPECT_EQ(bvEvaluate(G, bvAdd(G, F.A, F.B), F.Inputs),
              (F.AV + F.BV) & F.Mask);
    EXPECT_EQ(bvEvaluate(G, bvSub(G, F.A, F.B), F.Inputs),
              (F.AV - F.BV) & F.Mask);
    EXPECT_EQ(G.evaluate(bvEq(G, F.A, F.B), F.Inputs), F.AV == F.BV);
    EXPECT_EQ(G.evaluate(bvNe(G, F.A, F.B), F.Inputs), F.AV != F.BV);
    EXPECT_EQ(G.evaluate(bvUlt(G, F.A, F.B), F.Inputs), F.AV < F.BV);
    EXPECT_EQ(G.evaluate(bvUle(G, F.A, F.B), F.Inputs), F.AV <= F.BV);
    EXPECT_EQ(G.evaluate(bvSlt(G, F.A, F.B), F.Inputs),
              F.sext(F.AV) < F.sext(F.BV));
    EXPECT_EQ(G.evaluate(bvSle(G, F.A, F.B), F.Inputs),
              F.sext(F.AV) <= F.sext(F.BV));
    EXPECT_EQ(bvEvaluate(G, bvAnd(G, F.A, F.B), F.Inputs), F.AV & F.BV);
    EXPECT_EQ(bvEvaluate(G, bvOr(G, F.A, F.B), F.Inputs), F.AV | F.BV);
    EXPECT_EQ(bvEvaluate(G, bvXor(G, F.A, F.B), F.Inputs), F.AV ^ F.BV);
    EXPECT_EQ(bvEvaluate(G, bvNot(G, F.A), F.Inputs), ~F.AV & F.Mask);
    EXPECT_EQ(G.evaluate(bvNonZero(G, F.A), F.Inputs), F.AV != 0);
    EXPECT_EQ(G.evaluate(bvEqConst(G, F.A, F.BV), F.Inputs), F.AV == F.BV);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVecOpsTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 13u));

TEST(BitVec, ConstRoundTrip) {
  Graph G;
  for (uint64_t V : {0ull, 1ull, 5ull, 127ull, 255ull}) {
    BitVec C = bvConst(G, 8, V);
    EXPECT_EQ(bvEvaluate(G, C, {}), V & 0xff);
  }
}

TEST(BitVec, MuxSelects) {
  Graph G;
  NodeRef Cond = G.mkInput("c");
  BitVec A = bvConst(G, 4, 9), B = bvConst(G, 4, 4);
  BitVec M = bvMux(G, Cond, A, B);
  EXPECT_EQ(bvEvaluate(G, M, {true}), 9u);
  EXPECT_EQ(bvEvaluate(G, M, {false}), 4u);
}

TEST(BitVec, ResizeTruncatesAndZeroExtends) {
  Graph G;
  BitVec A = bvConst(G, 8, 0xAB);
  EXPECT_EQ(bvEvaluate(G, bvResize(G, A, 4), {}), 0xBu);
  EXPECT_EQ(bvEvaluate(G, bvResize(G, A, 12), {}), 0xABu);
}

TEST(CnfBuilder, EncodesConsistently) {
  // For random cones: SAT model restricted to inputs must evaluate the
  // root to the asserted polarity.
  Rng R(99);
  for (int Iter = 0; Iter < 40; ++Iter) {
    Graph G;
    unsigned W = 2 + R.below(5);
    BitVec A = bvInput(G, W, "a");
    BitVec B = bvInput(G, W, "b");
    NodeRef Root = G.mkAnd(bvUlt(G, A, B), ~bvEqConst(G, A, 0));
    sat::Solver S;
    CnfBuilder CB(G, S);
    CB.assertTrue(Root);
    ASSERT_TRUE(S.solve());
    std::vector<bool> In(2 * W);
    for (unsigned I = 0; I < W; ++I) {
      In[I] = S.modelValue(CB.litFor(A.bit(I))) == sat::LBool::True;
      In[W + I] = S.modelValue(CB.litFor(B.bit(I))) == sat::LBool::True;
    }
    EXPECT_TRUE(G.evaluate(Root, In));
  }
}

TEST(CnfBuilder, UnsatWhenForcedBothWays) {
  Graph G;
  NodeRef A = G.mkInput("a"), B = G.mkInput("b");
  NodeRef X = G.mkXor(A, B);
  sat::Solver S;
  CnfBuilder CB(G, S);
  CB.assertTrue(X);
  CB.assertTrue(G.mkEq(A, B));
  EXPECT_FALSE(S.solve());
}

TEST(CnfBuilder, IncrementalAcrossCones) {
  Graph G;
  sat::Solver S;
  CnfBuilder CB(G, S);
  NodeRef A = G.mkInput("a");
  CB.assertTrue(A);
  ASSERT_TRUE(S.solve());
  NodeRef B = G.mkInput("b");
  CB.assertTrue(G.mkAnd(A, ~B)); // new cone, same solver
  ASSERT_TRUE(S.solve());
  EXPECT_EQ(S.modelValue(CB.litFor(A)), sat::LBool::True);
  EXPECT_EQ(S.modelValue(CB.litFor(B)), sat::LBool::False);
}

TEST(CnfBuilder, DeepConeDoesNotOverflowTheStack) {
  // A 1500-stage 8-bit adder chain: both evaluation and Tseitin encoding
  // must be iterative.
  Graph G;
  BitVec Acc = bvInput(G, 8, "x");
  for (unsigned I = 0; I < 1500; ++I)
    Acc = bvAdd(G, Acc, bvConst(G, 8, (I % 5) + 1));
  NodeRef Root = bvEqConst(G, Acc, 0);
  // Evaluate concretely at x = 0.
  std::vector<bool> In(8, false);
  uint64_t Sum = 0;
  for (unsigned I = 0; I < 1500; ++I)
    Sum += (I % 5) + 1;
  EXPECT_EQ(G.evaluate(Root, In), (Sum & 0xff) == 0);
  // And encode into CNF.
  sat::Solver S;
  CnfBuilder CB(G, S);
  CB.assertTrue(Root);
  (void)S.solve(); // either verdict is fine; we only check survival
  SUCCEED();
}

TEST(CnfBuilder, MuxAwareEncodingAgreesWithEvaluate) {
  // Random cones mixing every constructor the trace encoder uses, plus
  // hand-built mux shapes: for every input assignment (as assumptions)
  // the model must agree with Graph::evaluate on every root, and forcing
  // a root the other way must be UNSAT.
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Rng R(Seed);
    Graph G;
    unsigned NumIn = 3 + static_cast<unsigned>(R.below(6));
    std::vector<NodeRef> In, Pool, Roots;
    for (unsigned I = 0; I < NumIn; ++I)
      In.push_back(G.mkInput("x" + std::to_string(I)));
    Pool = In;
    auto Pick = [&] {
      NodeRef N = Pool[R.below(Pool.size())];
      return R.chance(1, 2) ? ~N : N;
    };
    auto PickVec = [&] { return BitVec{{Pick(), Pick(), Pick()}}; };
    for (int Step = 0; Step < 40; ++Step) {
      BitVec V;
      switch (R.below(7)) {
      case 0: V.Bits = {G.mkAnd(Pick(), Pick())}; break;
      case 1: V.Bits = {G.mkOr(Pick(), Pick())}; break;
      case 2: V.Bits = {G.mkIte(Pick(), Pick(), Pick())}; break;
      case 3: V.Bits = {G.mkXor(Pick(), Pick())}; break;
      case 4: V.Bits = {G.mkEq(Pick(), Pick())}; break;
      case 5: V = bvMux(G, Pick(), PickVec(), PickVec()); break;
      default: V = bvAdd(G, PickVec(), PickVec()); break;
      }
      Pool.insert(Pool.end(), V.Bits.begin(), V.Bits.end());
    }
    Roots.assign(Pool.end() - 16, Pool.end());

    NodeRef C = In[0], T = In[1], E = In[2];
    // A mux whose inner ANDs another root references directly.
    Roots.push_back(G.mkIte(C, T, ~E));
    Roots.push_back(G.mkAnd(C, T));
    Roots.push_back(~G.mkAnd(~C, ~E));
    // Raw mux shapes: then == else, then == ~else, cond == then (mkAnd
    // folds C & C, so no mux is left), and a pairing that only matches
    // with the second operand of the first inner AND as the condition.
    Roots.push_back(G.mkAnd(~G.mkAnd(C, T), ~G.mkAnd(~C, T)));
    Roots.push_back(G.mkAnd(~G.mkAnd(C, T), ~G.mkAnd(~C, ~T)));
    Roots.push_back(G.mkAnd(~G.mkAnd(C, C), ~G.mkAnd(~C, E)));
    Roots.push_back(G.mkAnd(~G.mkAnd(C, T), ~G.mkAnd(~T, C)));
    // A branch that contains the condition itself.
    Roots.push_back(G.mkIte(C, G.mkAnd(C, E), G.mkXor(C, T)));

    sat::Solver S;
    CnfBuilder CB(G, S);
    std::vector<sat::Lit> InLit, RootLit;
    for (NodeRef X : In)
      InLit.push_back(CB.litFor(X));
    for (NodeRef X : Roots)
      RootLit.push_back(CB.litFor(X));

    for (uint32_t Bits = 0; Bits < (1u << NumIn); ++Bits) {
      std::vector<bool> Values(NumIn);
      std::vector<sat::Lit> Assume;
      for (unsigned I = 0; I < NumIn; ++I) {
        Values[I] = (Bits >> I) & 1;
        Assume.push_back(Values[I] ? InLit[I] : ~InLit[I]);
      }
      ASSERT_TRUE(S.solve(Assume));
      std::vector<bool> Expected;
      for (size_t K = 0; K < Roots.size(); ++K) {
        Expected.push_back(G.evaluate(Roots[K], Values));
        EXPECT_EQ(S.modelValue(RootLit[K]) == sat::LBool::True, Expected[K])
            << "seed " << Seed << " root " << K << " inputs " << Bits;
      }
      for (size_t K = 0; K < Roots.size(); ++K) {
        std::vector<sat::Lit> Flipped = Assume;
        Flipped.push_back(Expected[K] ? ~RootLit[K] : RootLit[K]);
        EXPECT_FALSE(S.solve(Flipped))
            << "seed " << Seed << " root " << K << " inputs " << Bits;
      }
    }
  }
}

TEST(CnfBuilder, MuxEncodesOneVariablePerBit) {
  // Each mux bit is one variable with the six-clause encoding, not three
  // AND gates with three clauses each.
  Graph G;
  NodeRef Cond = G.mkInput("c");
  BitVec A = bvInput(G, 8, "a"), B = bvInput(G, 8, "b");
  BitVec M = bvMux(G, Cond, A, B);
  sat::Solver S;
  CnfBuilder CB(G, S);
  (void)CB.litFor(Cond);
  for (unsigned I = 0; I < 8; ++I) {
    (void)CB.litFor(A.bit(I));
    (void)CB.litFor(B.bit(I));
  }
  int VarsBefore = S.numVars();
  size_t ClausesBefore = S.numClauses();
  for (unsigned I = 0; I < 8; ++I)
    (void)CB.litFor(M.bit(I));
  EXPECT_EQ(S.numVars() - VarsBefore, 8);
  EXPECT_EQ(S.numClauses() - ClausesBefore, 8u * 6u);
  EXPECT_EQ(CB.numEncoded(), 1u + 16u + 8u);
}

TEST(Graph, HashConsingScalesAcrossRepeatedCones) {
  // Re-encoding the same arithmetic must not grow the graph.
  Graph G;
  BitVec A = bvInput(G, 8, "a"), B = bvInput(G, 8, "b");
  (void)bvAdd(G, A, B);
  size_t After = G.numNodes();
  for (int I = 0; I < 10; ++I)
    (void)bvAdd(G, A, B);
  EXPECT_EQ(G.numNodes(), After);
}

TEST(Graph, TagCollisionsDedupExactly) {
  // A hash slot keeps only the high 32 bits of the operand pair's mix64.
  // These two pairs (found by search) agree in those bits and in the
  // home slot of the first, 1024-slot table, so the second probes
  // through the first's slot: only its operands tell the two apart.
  Graph G;
  for (int I = 0; I < 1600; ++I)
    G.mkInput("x" + std::to_string(I));
  const NodeRef A1 = NodeRef::fromCode(721), B1 = NodeRef::fromCode(1899);
  const NodeRef A2 = NodeRef::fromCode(2661), B2 = NodeRef::fromCode(3063);
  auto HashOf = [](NodeRef A, NodeRef B) {
    return mix64(static_cast<uint64_t>(A.code()) << 32 |
                 static_cast<uint32_t>(B.code()));
  };
  ASSERT_EQ(HashOf(A1, B1) >> 32, HashOf(A2, B2) >> 32) << "same tag";
  ASSERT_EQ(HashOf(A1, B1) & 1023, HashOf(A2, B2) & 1023) << "same home";

  NodeRef N1 = G.mkAnd(A1, B1), N2 = G.mkAnd(A2, B2);
  EXPECT_NE(N1, N2);
  EXPECT_EQ(G.operandA(N2), A2);
  EXPECT_EQ(G.operandB(N2), B2);
  EXPECT_EQ(G.mkAnd(B1, A1), N1);
  EXPECT_EQ(G.mkAnd(A2, B2), N2);

  // 600 more gates pass half of 1024 slots, so the hash grows and every
  // slot is placed anew from its node's operands.
  for (uint32_t I = 1; I <= 600; ++I)
    G.mkAnd(NodeRef::make(I, false), NodeRef::make(I + 1, true));
  size_t Nodes = G.numNodes();
  EXPECT_EQ(Nodes, 1u + 1600u + 2u + 600u);
  EXPECT_EQ(G.mkAnd(A1, B1), N1);
  EXPECT_EQ(G.mkAnd(B2, A2), N2);
  for (uint32_t I = 1; I <= 600; ++I)
    EXPECT_EQ(G.mkAnd(NodeRef::make(I + 1, true), NodeRef::make(I, false)),
              NodeRef::make(1600 + 2 + I, false));
  EXPECT_EQ(G.numNodes(), Nodes);
}
