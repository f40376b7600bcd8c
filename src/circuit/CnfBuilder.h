//===- circuit/CnfBuilder.h - CNF lowering into the solver ------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental CNF encoding of the gate DAG into the CDCL solver. A plain
/// AND gets the three Tseitin clauses; an AND that is a mux or XOR of
/// three leaves (see matchIte) gets one variable and the six-clause
/// if-then-else encoding instead, skipping its two inner ANDs unless
/// another edge reaches them (docs/SOLVER.md §8).
/// Gate-to-variable mappings persist across calls, so the inductive
/// synthesizer can keep one solver alive for the whole CEGIS run: each new
/// counterexample trace only encodes the cone of logic it adds, and hole
/// inputs keep stable SAT variables across all traces.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_CIRCUIT_CNFBUILDER_H
#define PSKETCH_CIRCUIT_CNFBUILDER_H

#include "circuit/Graph.h"
#include "sat/Solver.h"

#include <vector>

namespace psketch {
namespace circuit {

/// Lowers gate cones into CNF clauses on demand.
class CnfBuilder {
public:
  /// Both the graph and the solver must outlive the builder.
  CnfBuilder(Graph &G, sat::Solver &S) : G(G), S(S) {}

  /// \returns a solver literal equivalent to edge \p R, encoding the cone
  /// rooted at \p R if it has not been encoded yet.
  sat::Lit litFor(NodeRef R);

  /// Adds the unit clause forcing \p R true.
  void assertTrue(NodeRef R);

  /// Adds the unit clause forcing \p R false.
  void assertFalse(NodeRef R) { assertTrue(~R); }

  /// \returns the number of gate nodes already encoded.
  size_t numEncoded() const { return Encoded; }

private:
  Graph &G;
  sat::Solver &S;
  std::vector<sat::Var> NodeVar; // per node index; VarUndef = not encoded
  size_t Encoded = 0;

  sat::Var varForNode(uint32_t Node);

  /// \returns true if AND node \p Self is ~(C & T) & ~(~C & E), the shape
  /// mkIte, mkXor and bvMux build, setting \p Cond, \p Then and \p Else.
  /// Self is then ~ite(Cond, Then, Else).
  bool matchIte(NodeRef Self, NodeRef &Cond, NodeRef &Then,
                NodeRef &Else) const;
};

} // namespace circuit
} // namespace psketch

#endif // PSKETCH_CIRCUIT_CNFBUILDER_H
