//===- circuit/Graph.cpp ---------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "circuit/Graph.h"

#include "support/Hash.h"

#include <cassert>

using namespace psketch;
using namespace psketch::circuit;

Graph::Graph() {
  // Node 0: the constant TRUE.
  Nodes.push_back(Node());
}

NodeRef Graph::mkInput(std::string Name) {
  Node N;
  N.InputOrdinal = static_cast<int32_t>(InputNames.size());
  InputNames.push_back(std::move(Name));
  uint32_t Index = static_cast<uint32_t>(Nodes.size());
  Nodes.push_back(N);
  return NodeRef::make(Index, false);
}

bool Graph::isInput(NodeRef R) const {
  return R.node() != 0 && Nodes[R.node()].InputOrdinal >= 0;
}

bool Graph::isAnd(NodeRef R) const {
  return R.node() != 0 && Nodes[R.node()].InputOrdinal < 0;
}

unsigned Graph::inputOrdinal(NodeRef R) const {
  assert(isInput(R) && "not an input node");
  return static_cast<unsigned>(Nodes[R.node()].InputOrdinal);
}

const std::string &Graph::inputName(NodeRef R) const {
  return InputNames[inputOrdinal(R)];
}

NodeRef Graph::operandA(NodeRef R) const {
  assert(isAnd(R) && "not an AND node");
  return Nodes[R.node()].A;
}

NodeRef Graph::operandB(NodeRef R) const {
  assert(isAnd(R) && "not an AND node");
  return Nodes[R.node()].B;
}

/// The mix64 of the canonical operand pair (A, B), A < B.
static uint64_t operandHash(NodeRef A, NodeRef B) {
  return mix64(static_cast<uint64_t>(static_cast<uint32_t>(A.code())) << 32 |
               static_cast<uint32_t>(B.code()));
}

NodeRef Graph::mkAndRaw(NodeRef A, NodeRef B) {
  // Canonical operand order for structural hashing.
  if (B < A)
    std::swap(A, B);
  if (2 * (NumHashed + 1) > StructuralHash.size())
    growStructuralHash();
  uint64_t Hash = operandHash(A, B);
  uint32_t Tag = static_cast<uint32_t>(Hash >> 32);
  size_t Mask = StructuralHash.size() - 1;
  size_t Slot = Hash & Mask;
  while (StructuralHash[Slot].Node != 0) {
    const HashSlot &S = StructuralHash[Slot];
    if (S.Tag == Tag && Nodes[S.Node].A == A && Nodes[S.Node].B == B)
      return NodeRef::make(S.Node, false);
    Slot = (Slot + 1) & Mask;
  }
  Node N;
  N.A = A;
  N.B = B;
  uint32_t Index = static_cast<uint32_t>(Nodes.size());
  Nodes.push_back(N);
  StructuralHash[Slot] = HashSlot{Tag, Index};
  ++NumHashed;
  return NodeRef::make(Index, false);
}

void Graph::growStructuralHash() {
  // The slots keep only the high half of each hash, so the home slots in
  // the larger table are recomputed from the nodes' operands.
  std::vector<HashSlot> Old = std::move(StructuralHash);
  StructuralHash.assign(Old.empty() ? 1024 : 2 * Old.size(), HashSlot());
  size_t Mask = StructuralHash.size() - 1;
  for (const HashSlot &S : Old) {
    if (S.Node == 0)
      continue;
    size_t Slot = operandHash(Nodes[S.Node].A, Nodes[S.Node].B) & Mask;
    while (StructuralHash[Slot].Node != 0)
      Slot = (Slot + 1) & Mask;
    StructuralHash[Slot] = S;
  }
}

NodeRef Graph::mkAnd(NodeRef A, NodeRef B) {
  assert(A.isValid() && B.isValid() && "AND of invalid edge");
  if (A == getFalse() || B == getFalse())
    return getFalse();
  if (A == getTrue())
    return B;
  if (B == getTrue())
    return A;
  if (A == B)
    return A;
  if (A == ~B)
    return getFalse();
  return mkAndRaw(A, B);
}

NodeRef Graph::mkXor(NodeRef A, NodeRef B) {
  if (A == getFalse())
    return B;
  if (B == getFalse())
    return A;
  if (A == getTrue())
    return ~B;
  if (B == getTrue())
    return ~A;
  if (A == B)
    return getFalse();
  if (A == ~B)
    return getTrue();
  // a ^ b == ~(~(a & ~b) & ~(~a & b))
  return ~mkAnd(~mkAnd(A, ~B), ~mkAnd(~A, B));
}

NodeRef Graph::mkIte(NodeRef Cond, NodeRef Then, NodeRef Else) {
  if (Cond == getTrue())
    return Then;
  if (Cond == getFalse())
    return Else;
  if (Then == Else)
    return Then;
  if (Then == getTrue())
    return mkOr(Cond, Else);
  if (Then == getFalse())
    return mkAnd(~Cond, Else);
  if (Else == getTrue())
    return mkOr(~Cond, Then);
  if (Else == getFalse())
    return mkAnd(Cond, Then);
  return mkOr(mkAnd(Cond, Then), mkAnd(~Cond, Else));
}

NodeRef Graph::mkAndAll(const std::vector<NodeRef> &Terms) {
  if (Terms.empty())
    return getTrue();
  // Balanced reduction keeps evaluation stacks shallow.
  std::vector<NodeRef> Layer = Terms;
  while (Layer.size() > 1) {
    std::vector<NodeRef> Next;
    for (size_t I = 0; I + 1 < Layer.size(); I += 2)
      Next.push_back(mkAnd(Layer[I], Layer[I + 1]));
    if (Layer.size() % 2 == 1)
      Next.push_back(Layer.back());
    Layer = std::move(Next);
  }
  return Layer[0];
}

NodeRef Graph::mkOrAll(const std::vector<NodeRef> &Terms) {
  std::vector<NodeRef> Negated;
  Negated.reserve(Terms.size());
  for (NodeRef T : Terms)
    Negated.push_back(~T);
  return ~mkAndAll(Negated);
}

size_t Graph::memoryBytes() const {
  return Nodes.capacity() * sizeof(Node) +
         InputNames.capacity() * sizeof(std::string) +
         StructuralHash.capacity() * sizeof(HashSlot);
}

bool Graph::evaluate(NodeRef Root, const std::vector<bool> &InputValues) const {
  // Iterative post-order evaluation with memoization; cones can be deep.
  enum : char { Unknown = 0, KnownFalse = 1, KnownTrue = 2 };
  std::vector<char> Memo(Nodes.size(), Unknown);
  Memo[0] = KnownTrue;

  std::vector<uint32_t> Stack;
  Stack.push_back(Root.node());
  while (!Stack.empty()) {
    uint32_t Index = Stack.back();
    if (Memo[Index] != Unknown) {
      Stack.pop_back();
      continue;
    }
    const Node &N = Nodes[Index];
    if (N.InputOrdinal >= 0) {
      assert(static_cast<size_t>(N.InputOrdinal) < InputValues.size() &&
             "input value missing during evaluation");
      Memo[Index] =
          InputValues[static_cast<size_t>(N.InputOrdinal)] ? KnownTrue
                                                           : KnownFalse;
      Stack.pop_back();
      continue;
    }
    char MemoA = Memo[N.A.node()];
    char MemoB = Memo[N.B.node()];
    if (MemoA == Unknown) {
      Stack.push_back(N.A.node());
      continue;
    }
    if (MemoB == Unknown) {
      Stack.push_back(N.B.node());
      continue;
    }
    bool ValueA = (MemoA == KnownTrue) != N.A.negated();
    bool ValueB = (MemoB == KnownTrue) != N.B.negated();
    Memo[Index] = (ValueA && ValueB) ? KnownTrue : KnownFalse;
    Stack.pop_back();
  }
  bool Value = Memo[Root.node()] == KnownTrue;
  return Value != Root.negated();
}
