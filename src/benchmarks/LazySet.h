//===- benchmarks/LazySet.h - Singly-locked lazy-list remove ----*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 8.2.4: the lazy list-based set of Heller et al. add() keeps its
/// standard two-lock implementation; remove() is stripped of its locks and
/// the synthesizer may insert ONE lock and ONE unlock anywhere in the
/// body, on any of the candidate nodes, and choose the validation
/// condition. The paper's question: can remove() work with a single lock?
/// Expected answers (Figure 9): NO for threads mixing adds and removes
/// (`ar(ar|ar)`), YES when one thread only adds and the other only removes
/// (`ar(aa|rr)`).
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_BENCHMARKS_LAZYSET_H
#define PSKETCH_BENCHMARKS_LAZYSET_H

#include "benchmarks/Workload.h"
#include "ir/HoleAssignment.h"
#include "ir/Program.h"

#include <memory>

namespace psketch {
namespace bench {

struct LazySetOptions {
  ir::ReorderEncoding Encoding = ir::ReorderEncoding::Quadratic;
  /// The "full version of the lazy list-based set" the paper mentions
  /// sketching but omits from Figure 9: add()'s two lock placements,
  /// targets and validation condition are synthesized too.
  bool SketchAdd = false;
};

/// Builds the lazyset benchmark for workload \p W (ops 'a'/'r').
std::unique_ptr<ir::Program> buildLazySet(const Workload &W,
                                          const LazySetOptions &O =
                                              LazySetOptions());

/// A known-correct remove() for the one-adder, one-remover workloads
/// (`ar(aa|rr)`): lock curr before validating, validate that pred still
/// links to curr, unlock curr at the end. Sketched add() (SketchAdd) is
/// not covered. No single-lock remove() passes `ar(ar|ar)`.
ir::HoleAssignment lazySetReferenceCandidate(const ir::Program &P);

} // namespace bench
} // namespace psketch

#endif // PSKETCH_BENCHMARKS_LAZYSET_H
