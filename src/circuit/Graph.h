//===- circuit/Graph.h - Hash-consed boolean gate DAG -----------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An and-inverter-graph style boolean circuit with structural hashing and
/// constant folding. The symbolic encoder (Section 6 of the paper) lowers
/// the projected counterexample trace into this graph; the graph is then
/// Tseitin-encoded into the CDCL solver. Negation is an edge attribute, so
/// NOT costs nothing; AND is the only real gate, with OR/XOR/ITE built on
/// top of it.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_CIRCUIT_GRAPH_H
#define PSKETCH_CIRCUIT_GRAPH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace psketch {
namespace circuit {

/// A signed edge into the gate DAG: node index * 2 + complement bit.
class NodeRef {
public:
  NodeRef() : Code(-2) {}

  /// \returns the index of the referenced node.
  uint32_t node() const { return static_cast<uint32_t>(Code) >> 1; }

  /// \returns true if this edge complements the node's value.
  bool negated() const { return (Code & 1) != 0; }

  /// \returns the complemented edge.
  NodeRef operator~() const { return fromCode(Code ^ 1); }

  /// \returns a dense code (also usable as a hash key).
  int32_t code() const { return Code; }

  static NodeRef fromCode(int32_t Code) {
    NodeRef R;
    R.Code = Code;
    return R;
  }
  static NodeRef make(uint32_t Node, bool Negated) {
    return fromCode(static_cast<int32_t>(Node * 2 + (Negated ? 1 : 0)));
  }

  bool isValid() const { return Code >= 0; }

  bool operator==(const NodeRef &O) const { return Code == O.Code; }
  bool operator!=(const NodeRef &O) const { return Code != O.Code; }
  bool operator<(const NodeRef &O) const { return Code < O.Code; }

private:
  int32_t Code;
};

/// The boolean gate DAG.
///
/// Node 0 is the constant TRUE; inputs are free variables (the sketch's
/// hole bits); every internal node is a two-input AND. All constructors
/// fold constants and hash-cons structurally identical gates.
class Graph {
public:
  Graph();

  /// \returns the constant-true edge.
  NodeRef getTrue() const { return NodeRef::make(0, false); }

  /// \returns the constant-false edge.
  NodeRef getFalse() const { return NodeRef::make(0, true); }

  /// \returns the edge for the boolean constant \p Value.
  NodeRef getConst(bool Value) const {
    return Value ? getTrue() : getFalse();
  }

  /// Creates a fresh free input named \p Name (names aid debugging only).
  NodeRef mkInput(std::string Name);

  /// Boolean connectives; all fold constants and hash-cons.
  NodeRef mkAnd(NodeRef A, NodeRef B);
  NodeRef mkOr(NodeRef A, NodeRef B) { return ~mkAnd(~A, ~B); }
  NodeRef mkXor(NodeRef A, NodeRef B);
  NodeRef mkEq(NodeRef A, NodeRef B) { return ~mkXor(A, B); }
  NodeRef mkImplies(NodeRef A, NodeRef B) { return mkOr(~A, B); }
  NodeRef mkIte(NodeRef Cond, NodeRef Then, NodeRef Else);

  /// N-ary helpers (balanced reduction keeps the DAG shallow).
  NodeRef mkAndAll(const std::vector<NodeRef> &Terms);
  NodeRef mkOrAll(const std::vector<NodeRef> &Terms);

  /// \returns the number of nodes (including the constant node).
  size_t numNodes() const { return Nodes.size(); }

  /// \returns the number of free inputs created so far.
  size_t numInputs() const { return InputNames.size(); }

  /// True if \p R refers to the constant node.
  bool isConst(NodeRef R) const { return R.node() == 0; }

  /// True if \p R refers to an input node.
  bool isInput(NodeRef R) const;

  /// For an input node: its dense input ordinal.
  unsigned inputOrdinal(NodeRef R) const;

  /// For an input node: its name.
  const std::string &inputName(NodeRef R) const;

  /// For an AND node: its operand edges.
  NodeRef operandA(NodeRef R) const;
  NodeRef operandB(NodeRef R) const;
  bool isAnd(NodeRef R) const;

  /// Evaluates \p Root under \p InputValues (indexed by input ordinal).
  /// Used by the property tests and by candidate extraction.
  bool evaluate(NodeRef Root, const std::vector<bool> &InputValues) const;

  /// \returns the bytes of storage the graph holds, as allocated
  /// capacity: the nodes, the input names and the structural hash.
  size_t memoryBytes() const;

private:
  struct Node {
    // Inputs have InputOrdinal >= 0 and invalid operands; ANDs have
    // InputOrdinal == -1 and two valid operands. Node 0 is the constant.
    int32_t InputOrdinal = -1;
    NodeRef A, B;
  };

  std::vector<Node> Nodes;
  std::vector<std::string> InputNames;

  /// The structural hash: an open-addressing (linear probing) table from
  /// the canonical operand pair (A.code() << 32 | B.code()) to the index
  /// of its AND node. The pair's mix64 places it: the low bits pick the
  /// home slot and the high 32 bits are kept as a tag. A tag hit is
  /// confirmed against the node's operands, so dedup is exact. Node index
  /// 0 (the constant) marks an empty slot. The capacity is a power of
  /// two, kept at most half full.
  struct HashSlot {
    uint32_t Tag = 0;
    uint32_t Node = 0;
  };
  static_assert(sizeof(HashSlot) == 8, "a hash slot is 8 bytes");
  std::vector<HashSlot> StructuralHash;
  size_t NumHashed = 0;

  NodeRef mkAndRaw(NodeRef A, NodeRef B);
  void growStructuralHash();
};

} // namespace circuit
} // namespace psketch

#endif // PSKETCH_CIRCUIT_GRAPH_H
