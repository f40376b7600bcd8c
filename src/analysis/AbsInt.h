//===- analysis/AbsInt.h - Thread-modular interval analysis -----*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-modular abstract interpreter over the flat program: value
/// intervals for every global slot, heap field class, and thread local,
/// computed as a rely-guarantee fixpoint. The prologue is scanned
/// flow-sensitively (it runs alone); the parallel phase iterates
/// per-thread flow-sensitive scans against an accumulating interference
/// invariant INV (shared reads evaluate over INV, shared writes join
/// into it) until INV stabilizes, with interval widening to type bounds
/// after a fixed number of rounds; the epilogue is scanned from the
/// final INV. Flat bodies are loop-free — each thread executes its
/// straight-line body once — so the only fixpoint is the interference
/// closure and the only widening point is between closure rounds
/// (docs/ANALYSIS.md spells out the induction).
///
/// Three consumers:
///  * refutation — an always-executed assert whose condition is
///    abstractly [0,0], or an always-reached wait that is abstractly
///    [0,0] under the final INV, proves the candidate fails every
///    schedule; CEGIS excludes it without a verifier call;
///  * exec::ValueBounds — the per-slot intervals, which the Machine
///    packs visited-set keys with;
///  * lint — asserts that are abstractly [1,1] yet read program state
///    (so the syntactic constant-assert lint cannot see them) are
///    reported as dead.
///
/// Two modes share the evaluator: candidate mode (a full HoleAssignment
/// resolves HoleRead/Choice/static guards) and whole-space mode (holes
/// evaluate to their full value range, Choice joins every alternative,
/// unresolved static guards demote writes to weak updates and disable
/// refutation at that site). Whole-space refutation therefore proves
/// EVERY candidate fails.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_ANALYSIS_ABSINT_H
#define PSKETCH_ANALYSIS_ABSINT_H

#include "analysis/PointsTo.h"
#include "desugar/Flat.h"
#include "exec/Tuning.h"
#include "ir/HoleAssignment.h"
#include "ir/Program.h"

#include <cstdint>
#include <string>
#include <vector>

namespace psketch {
namespace analysis {

/// A closed signed-64 interval; Lo > Hi encodes bottom. All transfer
/// functions are exact-or-widening: the result covers every concrete
/// outcome of operands drawn from the inputs.
struct Interval {
  int64_t Lo = INT64_MAX;
  int64_t Hi = INT64_MIN;

  static Interval bottom() { return {}; }
  static Interval point(int64_t V) { return {V, V}; }
  static Interval of(int64_t Lo, int64_t Hi) { return {Lo, Hi}; }

  bool isBottom() const { return Lo > Hi; }
  bool isPoint() const { return Lo == Hi; }
  bool contains(int64_t V) const { return Lo <= V && V <= Hi; }
  bool definitelyTrue() const { return !isBottom() && !contains(0); }
  bool definitelyFalse() const { return Lo == 0 && Hi == 0; }

  Interval join(const Interval &O) const {
    if (isBottom())
      return O;
    if (O.isBottom())
      return *this;
    return {Lo < O.Lo ? Lo : O.Lo, Hi > O.Hi ? Hi : O.Hi};
  }

  bool operator==(const Interval &O) const {
    return Lo == O.Lo && Hi == O.Hi;
  }
  bool operator!=(const Interval &O) const { return !(*this == O); }
};

/// Knobs. The closure cap is a safety net: widening guarantees
/// stabilization long before it in practice.
struct AbsIntConfig {
  /// Interference-closure rounds before widening kicks in.
  unsigned WidenAfterRounds = 2;
  /// Hard cap on closure rounds; on hitting it every shared slot is
  /// forced to its type top (a trivially sound fixpoint).
  unsigned MaxClosureRounds = 8;
};

/// The step an abstract run refuted at. It stays a (context, pc) pair
/// until a diagnostic or a log line prints it: the screen runs once per
/// candidate and formats no text.
struct Refutation {
  unsigned Ctx = 0;
  unsigned Pc = 0;
  /// The provably failing assert's property name; null when the step's
  /// wait condition can never fire.
  const char *Assert = nullptr;
  /// "assert 'safety' provably fails" / "wait condition can never fire".
  std::string why() const;
};

/// Everything one abstract run concluded.
struct AbsIntResult {
  /// The candidate (or, whole-space: every candidate) provably violates
  /// an assertion or blocks forever on every schedule.
  bool Refuted = false;
  Refutation RefutedAt; ///< the refuting assert or wait (when Refuted)

  /// Sound per-slot intervals for the parallel phase (candidate mode;
  /// whole-space bounds are valid too but nobody consumes them).
  exec::ValueBounds Bounds;

  /// Asserts that are abstractly constant-true yet read program state —
  /// invisible to the syntactic lint, dead by interval reasoning. The
  /// flattener's loop-bound checks are left out: always true there only
  /// says the unroll bound suffices, and no author wrote them.
  struct DeadAssert {
    unsigned Ctx = 0;
    unsigned Pc = 0;
    const char *Label = ""; ///< the assert's property name
  };
  std::vector<DeadAssert> DeadAsserts;

  /// Interference-closure rounds taken (observability/testing).
  unsigned ClosureRounds = 0;
  bool Widened = false;
};

/// Runs the abstract interpreter. \p Holes selects candidate mode
/// (non-null) or whole-space mode (null). A non-null \p Pts (a points-to
/// solution for the SAME mode) refines the heap abstraction from one
/// interval per field class to one per (allocation site, field): resolved
/// field reads see only their sites' cells, thread-private prologue state
/// updates strongly, and — when the prologue is the sole allocator — the
/// result carries per-pool-node ValueBounds::HeapSlots.
AbsIntResult runAbsInt(const ir::Program &P, const flat::FlatProgram &FP,
                       const ir::HoleAssignment *Holes,
                       const AbsIntConfig &Cfg = AbsIntConfig(),
                       const PointsToResult *Pts = nullptr);

/// The per-candidate bundle CEGIS feeds the verifier layer: interval
/// refutation plus the Machine tunings (value bounds from the abstract
/// interpreter, lock annotations from analysis/Lockset.h, and — when the
/// shape pass is on — the allocation-site heap partition from
/// analysis/PointsTo.h).
struct CandidateFacts {
  bool Refuted = false;
  Refutation RefutedAt;
  exec::ValueBounds Bounds;
  exec::LockAnnotations Locks;
  /// Candidate-mode points-to solution (Ran == false when \p WithHeap
  /// was off or the analysis refused).
  PointsToResult Pts;
  /// The Machine-facing footprint refinement derived from Pts.
  exec::HeapPartition Heap;
};

/// \p WithHeap gates the points-to layer (CegisConfig::Shape): off, the
/// bundle degrades to the PR-6 behavior — class-granular heap bounds, no
/// partition.
CandidateFacts analyzeCandidate(const ir::Program &P,
                                const flat::FlatProgram &FP,
                                const ir::HoleAssignment &Holes,
                                const AbsIntConfig &Cfg = AbsIntConfig(),
                                bool WithHeap = true);

} // namespace analysis
} // namespace psketch

#endif // PSKETCH_ANALYSIS_ABSINT_H
