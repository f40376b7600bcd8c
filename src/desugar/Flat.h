//===- desugar/Flat.h - Flat guarded-step programs --------------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat program representation shared by the concrete interpreter, the
/// model checker, and the symbolic trace encoder. Section 6 of the paper
/// if-converts the sketch into "a sequence of predicated atomic
/// statements"; a Step is one such statement: the scheduling unit of the
/// interleaving semantics.
///
/// A step carries
///  * a static guard — a hole-only condition (reorder/generator selection)
///    that is fixed per candidate, so dead steps can be skipped without a
///    scheduling point;
///  * a dynamic guard — a boolean temp local written by an earlier
///    condition-evaluation step (branch conditions are evaluated once, in
///    their own atomic step, which is also where their shared reads become
///    visible to the scheduler);
///  * an optional wait condition — the step is a conditional atomic and is
///    only schedulable when the condition holds (the paper's only blocking
///    primitive);
///  * a list of predicated micro-ops executed atomically in order;
///  * its origin — the source statement it was lowered from, a label kind
///    and an unroll index. Step text ("x = y", "while#1 (!done)") exists
///    only in diagnostics, counterexample traces and log lines, so it is
///    rendered from the origin on request (flat::stepLabel in
///    desugar/Flatten.h), never stored.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_DESUGAR_FLAT_H
#define PSKETCH_DESUGAR_FLAT_H

#include "ir/Expr.h"
#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace psketch {
namespace flat {

/// An atomic effect inside a step.
struct MicroOp {
  enum class Kind : uint8_t {
    Write,  ///< Target = Value (when Pred holds)
    Assert, ///< check Value != 0 (when Pred holds)
    Alloc,  ///< Target = fresh node id (when Pred holds)
  };

  Kind OpKind = Kind::Write;
  ir::ExprRef Pred = nullptr; ///< null = unconditional within the step
  ir::Loc Target;             ///< Write/Alloc destination
  ir::ExprRef Value = nullptr;///< Write value or Assert condition
  const char *Label = "";     ///< Assert property name (the origin
                              ///< statement's, or a flattener literal)
};

/// How stepLabel() renders a step from its origin statement.
enum class LabelKind : uint8_t {
  Plain,      ///< the statement's first printed line: "x = y;"
  Atomic,     ///< "atomic " + the first line of the block's body
  If,         ///< "if (cond)": the branch-condition evaluation step
  While,      ///< "while#K (cond)": iteration K's condition evaluation
  WhileBound, ///< "while-bound (cond)": the flattener's unroll-bound check
};

/// One atomic, schedulable step.
struct Step {
  ir::ExprRef StaticGuard = nullptr; ///< hole-only; null = true
  ir::ExprRef DynGuard = nullptr;    ///< boolean temp read; null = true
  ir::ExprRef WaitCond = nullptr;    ///< non-null: conditional atomic
  std::vector<MicroOp> Ops;
  ir::StmtRef Origin = nullptr;      ///< the statement this step lowers
  uint32_t Unroll = 0;               ///< K of a While step
  LabelKind Kind = LabelKind::Plain; ///< how stepLabel() renders it
  bool TouchesShared = false; ///< scheduler-visible (POR classification)

  /// The flattener's while-bound check (an assert no author wrote).
  bool loopBound() const { return Kind == LabelKind::WhileBound; }
};

/// A flattened body: a straight list of steps.
struct FlatBody {
  std::vector<Step> Steps;
};

/// A flattened program: prologue, thread bodies, epilogue.
struct FlatProgram {
  const ir::Program *Source = nullptr;
  FlatBody Prologue;
  std::vector<FlatBody> Threads;
  FlatBody Epilogue;

  size_t totalSteps() const {
    size_t Total = Prologue.Steps.size() + Epilogue.Steps.size();
    for (const FlatBody &T : Threads)
      Total += T.Steps.size();
    return Total;
  }
};

} // namespace flat
} // namespace psketch

#endif // PSKETCH_DESUGAR_FLAT_H
