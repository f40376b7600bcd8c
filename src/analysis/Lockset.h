//===- analysis/Lockset.h - Eraser-style lockset inference ------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Syntactic lock discovery plus a must-hold lockset computation over the
/// flat program, in the spirit of Eraser (Savage et al., TOCS 1997) but
/// static: a *lock cell* is a flattened global slot whose every thread
/// write is either an acquire (a conditional-atomic step that waits for
/// the cell to equal its free value and writes a static non-free value)
/// or a release (an unconditional-within-the-step write of the free value
/// at a site that provably holds the lock). Cells passing the discipline
/// yield
///
///  * exec::LockAnnotations — must-entry lock masks per (thread, pc),
///    consumed by the Machine's protectedBy footprint channel so the
///    partial-order reduction can discount conflicts between same-lock
///    critical sections (docs/ANALYSIS.md gives the soundness argument);
///  * race findings — shared slots accessed by two threads with a
///    *inconsistent* discipline (some site holds a lock, another holds
///    none in common), reported as warning-grade lint.
///
/// The analysis refuses (returns empty annotations, never wrong ones) on
/// anything it cannot prove: hole-dependent lock values, writes through
/// unresolved array indices, prologue writes to a lock cell, more than one
/// write to the cell inside one step, or more than 32 qualifying cells.
/// Refusals are recorded as (cell, reason, step) records. The pass runs
/// once per candidate inside the CEGIS loop, so it formats no text.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_ANALYSIS_LOCKSET_H
#define PSKETCH_ANALYSIS_LOCKSET_H

#include "desugar/Flat.h"
#include "exec/Tuning.h"
#include "ir/HoleAssignment.h"
#include "ir/Program.h"

#include <string>
#include <vector>

namespace psketch {
namespace analysis {

/// One inconsistently-protected shared slot.
struct RaceFinding {
  unsigned GlobalSlot = 0; ///< flattened slot index (slotName() names it)
  unsigned Ctx = 0;        ///< first unprotected access site
  unsigned Pc = 0;
};

/// Why a slot was refused as a lock cell.
struct LocksetRefusal {
  unsigned Slot = 0;    ///< flattened slot index of the refused cell
  const char *Why = ""; ///< "written by the prologue", ...
  /// The offending step, for the reasons that name one ("non-conforming
  /// write", "release without provable ownership"); 0 otherwise.
  unsigned Ctx = 0;
  unsigned Pc = 0;
};

/// Everything the lockset pass concluded.
struct LocksetResult {
  /// Qualified lock cells + per-(thread, pc) must-entry masks. Empty when
  /// no cell passes the discipline; always safe to hand to the Machine.
  exec::LockAnnotations Locks;

  /// Eraser-style inconsistent-locking warnings (threads only; a slot is
  /// reported when >= 2 threads access it, at least one writes, at least
  /// one site holds a qualified lock, and the intersection over all sites
  /// is empty). Deliberately quiet on lock-free programs: with no
  /// qualified lock, no site "holds" anything and nothing is reported.
  std::vector<RaceFinding> Races;

  /// Refused lock cells, for tests.
  std::vector<LocksetRefusal> Refusals;
};

/// "owner" or "acct[2]": the global element at flattened slot \p Slot.
std::string slotName(const ir::Program &P, unsigned Slot);

/// Runs the lockset analysis. \p Holes resolves static guards, Choice
/// selectors, and write values per candidate; pass nullptr for the
/// whole-space mode, where hole-dependent steps are treated as
/// may-execute and hole-dependent values refuse the cell.
LocksetResult runLockset(const ir::Program &P, const flat::FlatProgram &FP,
                         const ir::HoleAssignment *Holes);

} // namespace analysis
} // namespace psketch

#endif // PSKETCH_ANALYSIS_LOCKSET_H
