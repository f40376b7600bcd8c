//===- synth/InductiveSynth.h - SAT-backed inductive synthesis --*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inductive half of CEGIS: keeps one incremental SAT instance alive
/// across the whole run; every observation (a projected counterexample
/// trace, or a concrete input for the sequential mode) adds the clauses of
/// `not fail(Sk_t[c])`; solve() proposes the next candidate consistent
/// with everything seen so far, or reports that the sketch cannot be
/// resolved.
///
/// With warm start on (the default), consecutive solves continue one CDCL
/// search (docs/SOLVER.md), and constraints can be grouped into
/// activation-literal scopes: scoped constraints hold only while their
/// scope is open (each solve assumes the open scopes' activation
/// literals), and closing a scope retracts them permanently without
/// leaving garbage in the clause database.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_SYNTH_INDUCTIVESYNTH_H
#define PSKETCH_SYNTH_INDUCTIVESYNTH_H

#include "circuit/CnfBuilder.h"
#include "circuit/Graph.h"
#include "ir/HoleAssignment.h"
#include "sat/Solver.h"
#include "synth/Projection.h"
#include "synth/TraceEncoder.h"
#include "verify/Trace.h"

#include <memory>
#include <string>

namespace psketch {
namespace synth {

/// One candidate-proposing solve, as measured (the per-iteration Ssolve
/// telemetry psketch_tool --stats and the bench JSON rows report).
struct SolveRecord {
  double Seconds = 0.0;
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Restarts = 0;
  uint64_t Propagations = 0;
  size_t LearntClauses = 0; ///< learnt-DB size after the solve
  bool Sat = false;
};

/// Timing of the two synthesizer phases, matching Figure 9's columns.
struct SynthStats {
  double ModelSeconds = 0.0; ///< Smodel: building circuits and clauses
  double SolveSeconds = 0.0; ///< Ssolve: SAT solving (includes probes)
  size_t Observations = 0;
  size_t GateCount = 0;
  size_t ClauseCount = 0;
  size_t Probes = 0; ///< assumption-only what-if queries (not in Solves)
  std::vector<SolveRecord> Solves; ///< one entry per candidate solve
};

/// \returns the process-wide default for SynthOptions::WarmStart: true
/// unless the environment sets PSKETCH_WARM_START to "0" or "off" (the
/// CI knob that runs the whole suite on the from-scratch path).
bool defaultWarmStart();

/// Synthesizer construction knobs.
struct SynthOptions {
  /// Warm-started incremental solving (sat::Solver::setWarmStart).
  bool WarmStart = defaultWarmStart();
  /// Solves between root-level inprocessing passes (0 = off); only
  /// consulted when WarmStart is on.
  unsigned InprocessCadence = 4;
};

/// The inductive synthesizer for one flat program.
class InductiveSynth {
public:
  explicit InductiveSynth(const flat::FlatProgram &FP,
                          SynthOptions Opts = SynthOptions());

  /// Adds a counterexample trace as an observation (projection + symbolic
  /// encoding + clauses).
  void addTrace(const verify::Counterexample &Cex);

  /// Adds a sequential observation: the program, run on the given initial
  /// global values, must not fail. Used by the `implements` CEGIS mode
  /// where observations are inputs, not schedules.
  void addInputObservation(const GlobalOverrides &Overrides);

  /// Finds a candidate consistent with all observations (and all open
  /// scopes' constraints). \returns false if none exists (the sketch
  /// cannot be resolved).
  bool solve(ir::HoleAssignment &CandidateOut);

  /// Opens a constraint scope and \returns its id. Constraints asserted
  /// into the scope hold for every solve until closeScope() retracts
  /// them. Scoped constraints are guarded by a fresh activation literal
  /// that solve() assumes, so they never pollute the permanent clause
  /// database.
  unsigned openScope();

  /// Closes \p ScopeId: its constraints are retracted for good (the
  /// activation literal is forced false, melting the guarded clauses,
  /// which the solver's inprocessing then sweeps).
  void closeScope(unsigned ScopeId);

  /// Excludes a specific candidate from future solutions (used to
  /// enumerate multiple implementations, Section 8.3.1's autotuning
  /// note). \p Scope < 0 excludes permanently; otherwise the exclusion
  /// lives in that scope.
  void excludeCandidate(const ir::HoleAssignment &Candidate, int Scope = -1);

  /// Asserts that hole \p HoleId never takes \p Value (a static-analyzer
  /// unit ban: the value is a guaranteed failure or has an equivalent
  /// smaller representative).
  void banHoleValue(unsigned HoleId, uint64_t Value, int Scope = -1);

  /// Asserts a hole-only constraint from the static analyzer (e.g. a
  /// deadlocking-subspace exclusion or a reorder canonicalization).
  void assertHoleConstraint(ir::ExprRef Constraint, int Scope = -1);

  /// What-if query: \returns true iff some candidate with hole \p HoleId
  /// fixed to \p Value is consistent with all observations. Runs as an
  /// assumption solve — nothing is asserted, the instance is unchanged.
  bool probeHoleValue(unsigned HoleId, uint64_t Value);

  /// What-if query: \returns true iff \p Candidate itself is consistent
  /// with all observations (assumption solve; instance unchanged).
  bool probeCandidate(const ir::HoleAssignment &Candidate);

  /// Renders the live instance as DIMACS text, with a comment map from
  /// each hole to its SAT variables (psketch_tool --dump-cnf).
  std::string dumpDimacs();

  const SynthStats &stats() const { return Stats; }

  /// \returns the bytes the solver and the gate graph hold
  /// (sat::Solver::memoryBytes plus circuit::Graph::memoryBytes).
  size_t memoryBytes() const {
    return Solver.memoryBytes() + Graph.memoryBytes();
  }
  const sat::Solver &solver() const { return Solver; }

private:
  const flat::FlatProgram &FP;
  circuit::Graph Graph;
  sat::Solver Solver;
  circuit::CnfBuilder Cnf;
  TraceEncoder Encoder;
  SynthStats Stats;
  SynthOptions Opts;

  // Activation literals, indexed by scope id; Open flags which are live.
  std::vector<sat::Lit> ScopeLits;
  std::vector<char> ScopeOpen;

  /// The open scopes' activation literals (every solve assumes these).
  std::vector<sat::Lit> scopeAssumptions() const;

  /// Asserts node \p N (true) into \p Scope: permanently when negative,
  /// otherwise as the guarded clause (~activation | N).
  void assertScoped(circuit::NodeRef N, int Scope);

  /// Runs one measured solve under \p Assumptions, recording telemetry
  /// into Stats.Solves when \p Probe is false.
  bool measuredSolve(const std::vector<sat::Lit> &Assumptions, bool Probe);
};

} // namespace synth
} // namespace psketch

#endif // PSKETCH_SYNTH_INDUCTIVESYNTH_H
