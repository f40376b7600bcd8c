//===- circuit/CnfBuilder.cpp ----------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "circuit/CnfBuilder.h"

#include <cassert>
#include <utility>

using namespace psketch;
using namespace psketch::circuit;
using psketch::sat::Lit;
using psketch::sat::Var;
using psketch::sat::VarUndef;

bool CnfBuilder::matchIte(NodeRef Self, NodeRef &Cond, NodeRef &Then,
                          NodeRef &Else) const {
  NodeRef A = G.operandA(Self);
  NodeRef B = G.operandB(Self);
  if (!A.negated() || !B.negated() || !G.isAnd(A) || !G.isAnd(B))
    return false;
  // Self = ~(X1 & Y1) & ~(X2 & Y2); look for a literal of the first inner
  // AND whose complement is an operand of the second.
  NodeRef X1 = G.operandA(A), Y1 = G.operandB(A);
  NodeRef X2 = G.operandA(B), Y2 = G.operandB(B);
  for (auto [C, T] : {std::pair{X1, Y1}, std::pair{Y1, X1}}) {
    if (C == ~X2 || C == ~Y2) {
      Cond = C;
      Then = T;
      Else = C == ~X2 ? Y2 : X2;
      return true;
    }
  }
  return false;
}

Var CnfBuilder::varForNode(uint32_t Root) {
  if (NodeVar.size() < G.numNodes())
    NodeVar.resize(G.numNodes(), VarUndef);
  if (NodeVar[Root] != VarUndef)
    return NodeVar[Root];

  // Iterative DFS over the unencoded cone (cones can be very deep: ripple
  // adders chained across a whole projected trace).
  std::vector<uint32_t> Stack;
  Stack.push_back(Root);
  while (!Stack.empty()) {
    uint32_t Index = Stack.back();
    if (NodeVar[Index] != VarUndef) {
      Stack.pop_back();
      continue;
    }
    NodeRef Self = NodeRef::make(Index, false);
    if (G.isConst(Self)) {
      Var V = S.newVar();
      S.addClause(Lit(V, false)); // pin the constant node to TRUE
      NodeVar[Index] = V;
      ++Encoded;
      Stack.pop_back();
      continue;
    }
    if (G.isInput(Self)) {
      NodeVar[Index] = S.newVar();
      ++Encoded;
      Stack.pop_back();
      continue;
    }
    // A mux node is lowered from its three leaves; its two inner ANDs get
    // variables only if some other edge reaches them.
    NodeRef Ops[3];
    bool Ite = matchIte(Self, Ops[0], Ops[1], Ops[2]);
    if (!Ite) {
      Ops[0] = G.operandA(Self);
      Ops[1] = G.operandB(Self);
    }
    bool Pending = false;
    for (unsigned I = 0, N = Ite ? 3 : 2; I < N; ++I) {
      if (NodeVar[Ops[I].node()] == VarUndef) {
        Stack.push_back(Ops[I].node());
        Pending = true;
      }
    }
    if (Pending)
      continue;

    auto LitOf = [&](NodeRef R) {
      return Lit(NodeVar[R.node()], R.negated());
    };
    Var V = S.newVar();
    Lit LV(V, false);
    if (Ite) {
      // Self = ~ite(C, T, E), so F = ~LV is the mux output.
      Lit F = ~LV, C = LitOf(Ops[0]), T = LitOf(Ops[1]), E = LitOf(Ops[2]);
      S.addClause(~C, ~T, F);
      S.addClause(~C, T, ~F);
      S.addClause(C, ~E, F);
      S.addClause(C, E, ~F);
      // Redundant but arc-consistent: F follows from T == E before C is
      // known. Both are tautologies for an XOR (T == ~E).
      if (T != ~E) {
        S.addClause(~T, ~E, F);
        S.addClause(T, E, ~F);
      }
    } else {
      // Tseitin for V <-> LA & LB.
      Lit LA = LitOf(Ops[0]), LB = LitOf(Ops[1]);
      S.addClause(~LV, LA);
      S.addClause(~LV, LB);
      S.addClause(LV, ~LA, ~LB);
    }
    NodeVar[Index] = V;
    ++Encoded;
    Stack.pop_back();
  }
  return NodeVar[Root];
}

Lit CnfBuilder::litFor(NodeRef R) {
  assert(R.isValid() && "encoding an invalid edge");
  Var V = varForNode(R.node());
  return Lit(V, R.negated());
}

void CnfBuilder::assertTrue(NodeRef R) {
  if (R == G.getTrue())
    return;
  S.addClause(litFor(R));
}
