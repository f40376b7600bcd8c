//===- analysis/Util.h - Shared helpers for the analysis passes -*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expression- and program-level helpers shared by the analysis passes:
/// step labels, hole and global-read collection, bounded enumeration of
/// small hole subspaces, and structural program equality under a
/// single-hole substitution (the workhorse of generator-alternative
/// equivalence detection).
///
/// Context numbering follows exec::Machine: threads are 0..N-1, the
/// prologue is N, the epilogue is N+1.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_ANALYSIS_UTIL_H
#define PSKETCH_ANALYSIS_UTIL_H

#include "desugar/Flat.h"
#include "ir/Expr.h"
#include "ir/HoleAssignment.h"
#include "ir/Program.h"

#include <cstdint>
#include <functional>
#include <set>
#include <string>

namespace psketch {
namespace analysis {

//===----------------------------------------------------------------------===//
// Context navigation.
//===----------------------------------------------------------------------===//

/// \returns the number of contexts (threads + prologue + epilogue).
inline unsigned numContexts(const flat::FlatProgram &FP) {
  return static_cast<unsigned>(FP.Threads.size()) + 2;
}

/// \returns the flat body of context \p Ctx (Machine numbering).
const flat::FlatBody &bodyOf(const flat::FlatProgram &FP, unsigned Ctx);

/// "prologue", "thread 2", or "epilogue".
std::string contextName(const flat::FlatProgram &FP, unsigned Ctx);

/// "thread 0, step 3: x = tmp" — the Where string for step diagnostics.
std::string stepWhere(const flat::FlatProgram &FP, unsigned Ctx, unsigned Pc);

//===----------------------------------------------------------------------===//
// Hole collection and bounded enumeration.
//===----------------------------------------------------------------------===//

/// Adds every hole id mentioned by \p E (HoleRead ids and Choice
/// selectors) to \p Out.
void collectHoles(ir::ExprRef E, std::set<unsigned> &Out);

/// True if \p E mentions hole \p HoleId.
bool mentionsHole(ir::ExprRef E, unsigned HoleId);

/// Calls \p Fn for every assignment of the holes in \p HoleIds (values
/// range over each hole's NumChoices). The assignment is presented as a
/// full-size HoleAssignment with entries outside \p HoleIds left at 0.
/// \returns false (without calling \p Fn) when the product of choice
/// counts exceeds \p Cap.
bool forEachAssignment(const ir::Program &P,
                       const std::vector<unsigned> &HoleIds, uint64_t Cap,
                       const std::function<void(const ir::HoleAssignment &)> &Fn);

//===----------------------------------------------------------------------===//
// Global reads.
//===----------------------------------------------------------------------===//

/// Adds every scalar-global id read by \p E to \p Out.
void collectScalarGlobals(ir::ExprRef E, std::set<unsigned> &Out);

//===----------------------------------------------------------------------===//
// Structural equality under a single-hole substitution.
//===----------------------------------------------------------------------===//

/// True if expressions \p A under {hole=U} and \p B under {hole=V} are
/// structurally identical (Choice nodes selected by the hole are resolved
/// to their picked alternative first).
bool exprEqualUnder(ir::ExprRef A, ir::ExprRef B, unsigned HoleId, uint64_t U,
                    uint64_t V);

/// The same, for locations.
bool locEqualUnder(const ir::Loc &A, const ir::Loc &B, unsigned HoleId,
                   uint64_t U, uint64_t V);

/// True if the whole flat program (every step of every context, plus the
/// program's static constraints) is structurally identical under
/// {hole=U} vs {hole=V}: the two candidate subspaces are semantically
/// interchangeable, so the larger value can be pruned.
bool programEqualUnder(const flat::FlatProgram &FP, unsigned HoleId,
                       uint64_t U, uint64_t V);

} // namespace analysis
} // namespace psketch

#endif // PSKETCH_ANALYSIS_UTIL_H
