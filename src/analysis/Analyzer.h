//===- analysis/Analyzer.h - The static sketch analyzer ---------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static sketch analyzer. It has two entry points, each with one job:
///
///  * analyze() is the CEGIS pre-pass. It runs once before the loop and
///    computes only what the loop asserts: unit bans and hole-only
///    exclusion constraints, which keep whole subspaces of C from ever
///    being proposed, and proofs that no candidate can pass, which let
///    CEGIS answer NO with zero verifier calls. Three passes:
///     - hole-space pruning (HoleSpacePrune.h) — unused holes, equivalent
///       generator alternatives and redundant reorder positions become
///       unit bans and canonicalization exclusions;
///     - constant asserts (SketchLint.h) — a constant-false assert on an
///       unguarded step proves the sketch unresolvable;
///     - whole-space interval refutation (AbsInt.h, AnalysisConfig::AbsInt)
///       — an assert that provably fails, or a wait that can never fire,
///       under every candidate and schedule.
///  * lint() returns every diagnostic for the sketch author: analyze()'s
///    own, plus the rest of the sketch lint (unobservable holes,
///    structure, near-symmetry), the interval-dead asserts and Eraser
///    race warnings of AbsInt.h, and the heap lint of Shape.h. It never
///    runs inside the loop; psketch_tool calls it.
///
/// Soundness contract: every assignment covered by a ban or exclusion is
/// either (a) guaranteed to fail verification, or (b) semantically
/// identical to a smaller assignment that stays in the space. Hence the
/// Resolvable/NO verdict of CEGIS is unchanged, and any resolution found
/// is a correct (possibly different but equivalent) implementation.
/// docs/ANALYSIS.md spells out the per-pass arguments; the property test
/// in tests/test_analysis.cpp checks them on randomized sketches.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_ANALYSIS_ANALYZER_H
#define PSKETCH_ANALYSIS_ANALYZER_H

#include "analysis/Diagnostic.h"
#include "desugar/Flat.h"
#include "ir/Program.h"

#include <cstdint>
#include <string>
#include <vector>

namespace psketch {
namespace analysis {

/// The pre-pass setting that is not fixed: SequentialCegis turns the
/// interval refutation off, because `implements` tests override the
/// declared initializers it reasons from.
struct AnalysisConfig {
  bool AbsInt = true; ///< run the whole-space interval refutation (AbsInt.h)
};

/// A unit clause: hole \p HoleId must not take \p Value.
struct HoleValueBan {
  unsigned HoleId = 0;
  uint64_t Value = 0;
};

/// Everything the analyzer concluded.
struct AnalysisResult {
  std::vector<Diagnostic> Diags;

  /// Unit bans the synthesizer asserts up front (each value is either a
  /// guaranteed failure or equivalent to a smaller remaining value).
  std::vector<HoleValueBan> Bans;

  /// Hole-only constraints every proposed candidate must satisfy (reorder
  /// canonicalizations).
  std::vector<ir::ExprRef> Exclusions;

  /// The analyzer proved that *no* hole assignment can satisfy the
  /// specification; CEGIS may report NO without a verifier call.
  bool ProvedUnresolvable = false;
  std::string UnresolvableWhy;

  /// log10 |C'| - log10 |C|: the candidate-space shrink from bans and
  /// canonicalizations (<= 0). bench_table1 adds this to Table 1's |C|.
  double SpaceLog10Delta = 0.0;
};

/// The CEGIS pre-pass over \p P / \p FP. \p FP must be the flattening
/// of \p P (exclusion constraints are allocated in \p P's arena, which is
/// why the program is taken mutably).
AnalysisResult analyze(ir::Program &P, const flat::FlatProgram &FP,
                       const AnalysisConfig &Cfg = AnalysisConfig());

/// Every diagnostic for \p P / \p FP: analyze()'s (with the interval
/// refutation on) followed by the lint-only passes. Same preconditions as
/// analyze().
std::vector<Diagnostic> lint(ir::Program &P, const flat::FlatProgram &FP);

/// Frontend-facing well-formedness validation: out-of-range hole, global,
/// field, and local references; Choice nodes whose alternative count
/// disagrees with their selector hole. \returns error diagnostics (empty
/// when the program is well-formed). Used by psketch_tool to reject
/// malformed inputs with a real diagnostic instead of crashing or
/// silently reporting non-resolution.
std::vector<Diagnostic> validateProgram(const ir::Program &P);

//===----------------------------------------------------------------------===//
// Individual passes (analyze() and lint() run them).
//===----------------------------------------------------------------------===//

void runHoleSpacePrune(ir::Program &P, const flat::FlatProgram &FP,
                       DiagnosticSink &Sink, AnalysisResult &Out);
/// The constant-assert half of the sketch lint (SketchLint.h): the one
/// that can prove the sketch unresolvable.
void runConstantAsserts(const ir::Program &P, const flat::FlatProgram &FP,
                        DiagnosticSink &Sink, AnalysisResult &Out);
/// The whole-space abstract run (AbsInt.h): refutation of every
/// candidate (ProvedUnresolvable, an Error diagnostic); with \p Lint, also
/// interval-dead asserts and Eraser-style race warnings.
void runAbsIntScreen(const ir::Program &P, const flat::FlatProgram &FP,
                     bool Lint, DiagnosticSink &Sink, AnalysisResult &Out);
/// The rest of the sketch lint: unobservable holes, structure and
/// near-symmetry.
void runSketchLint(const ir::Program &P, const flat::FlatProgram &FP,
                   DiagnosticSink &Sink);
/// The allocation-site points-to + shape lint (Shape.h): definite-null
/// derefs, leaked sites and heap-field races.
void runShapeLint(const ir::Program &P, const flat::FlatProgram &FP,
                  DiagnosticSink &Sink);

} // namespace analysis
} // namespace psketch

#endif // PSKETCH_ANALYSIS_ANALYZER_H
