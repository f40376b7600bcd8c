//===- analysis/SketchLint.h - Sketch lint ----------------------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sketch lint passes: findings that tell the sketch author the
/// sketch is probably not what they meant.
///
///  * constant asserts (runConstantAsserts, part of the CEGIS pre-pass) —
///    an assert whose condition folds to a constant with no hole
///    assigned: constant-true is vacuous (warning); constant-false on an
///    unguarded straight-line step makes every candidate fail, which
///    proves the sketch unresolvable (error);
///
/// and, in lint() only (runSketchLint), findings that never shrink the
/// candidate space:
///
///  * unobservable holes — a backward liveness pass over locals finds
///    holes none of whose occurrences can reach an observable effect
///    (a shared write, an assert, an allocation, a wait condition, or a
///    live local); their alternatives are indistinguishable, so the hole
///    only inflates |C| (warning);
///  * structural mistakes — a sketch with no asserts at all (every
///    candidate trivially resolves), empty thread bodies, asserts over
///    globals no step ever writes, and globals written but never read
///    (workload/specification pattern mismatches).
///
/// Each finding names its step in Diagnostic::Where (stepWhere), whose
/// text flat::stepLabel renders from the step's origin statement.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_ANALYSIS_SKETCHLINT_H
#define PSKETCH_ANALYSIS_SKETCHLINT_H

#include "analysis/Analyzer.h"

#endif // PSKETCH_ANALYSIS_SKETCHLINT_H
