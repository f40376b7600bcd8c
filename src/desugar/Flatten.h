//===- desugar/Flatten.h - If-conversion to flat steps ----------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers the structured sketch IR into the flat guarded-step form:
///  * bounded `while` loops are fully unrolled, with a guarded
///    `assert(!cond)` after the last iteration (the paper's bounded
///    termination requirement);
///  * data-dependent branch conditions are evaluated once into fresh
///    boolean temps, in their own atomic step;
///  * hole-only conditions (reorder slots, optional statements) stay
///    static guards — no evaluation step, no scheduling point;
///  * `reorder` blocks expand per their encoding (ir/ReorderExpand.h);
///  * `atomic`/conditional-atomic bodies collapse into predicated
///    micro-ops of a single step.
///
/// Flattening adds hidden temp locals to the program's bodies, so it takes
/// the Program by mutable reference and must run exactly once per Program.
/// It prints no statement: each step records its origin statement, and
/// stepLabel() renders the step's text from it on request.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_DESUGAR_FLATTEN_H
#define PSKETCH_DESUGAR_FLATTEN_H

#include "desugar/Flat.h"
#include "ir/Program.h"

#include <string>

namespace psketch {
namespace flat {

/// Flattens every body of \p P. \returns the flat program, which holds a
/// pointer to \p P (the program must outlive it).
FlatProgram flatten(ir::Program &P);

/// The text of step \p Pc of context \p Ctx (exec::Machine numbering:
/// threads 0..N-1, the prologue N, the epilogue N+1), rendered from the
/// step's origin statement: "x = y;", "atomic lock(l);", "if (c)",
/// "while#1 (!done)", "while-bound (!done)". For diagnostics, traces and
/// log lines; no search decision reads it.
std::string stepLabel(const FlatProgram &FP, unsigned Ctx, unsigned Pc);

} // namespace flat
} // namespace psketch

#endif // PSKETCH_DESUGAR_FLATTEN_H
