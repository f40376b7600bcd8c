//===- bench_suite/TracedCegis.h - CEGIS loop with layer spans --*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer timing for bench_suite's traced passes. Tracer keeps spans in
/// memory (name "layer.function", start, end, parent span, and the row as
/// the trace id) and writes them as Chrome trace-event JSON at exit, which
/// Perfetto or about:tracing open offline.
///
/// TracedCegis is a copy of cegis::ConcurrentCegis::run() (src/cegis/
/// Cegis.cpp) that makes the same public calls, in the same order, with a
/// span around each. It covers the configuration the benchmark runs: the
/// pre-screen and per-candidate screen as configured, learning from
/// counterexample traces, no audit modes. bench_suite checks on every row
/// that it reaches the same answer with the same work as the original.
/// It is the only copy of the loop outside src/; delete it once the
/// program records its own spans.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_BENCH_SUITE_TRACEDCEGIS_H
#define PSKETCH_BENCH_SUITE_TRACEDCEGIS_H

#include "cegis/Cegis.h"
#include "verify/Trace.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace psketch {
namespace suite {

/// \returns \p S as a JSON string literal (quotes and backslashes escaped,
/// control characters dropped).
std::string jsonString(const std::string &S);

/// One timed call into a layer.
struct Span {
  std::string Name;     ///< "layer.function", e.g. "synth.solve"
  unsigned TraceId = 0; ///< the row the call belongs to
  int Parent = -1;      ///< index of the enclosing span; -1 at a root
  double Start = 0.0;   ///< seconds since the tracer was created
  double End = 0.0;
};

/// Records spans in memory, nested by the order they open and close.
class Tracer {
public:
  Tracer() : Epoch(Clock::now()) {}

  /// Sets the trace id that spans opened from now on carry.
  void setTraceId(unsigned Id) { TraceId = Id; }

  /// Opens a span under the innermost open one. \returns its index.
  size_t open(const char *Name);
  /// Closes span \p Index, which must be the innermost open one.
  void close(size_t Index);

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes every span as Chrome trace-event JSON; trace id I is shown as
  /// thread I, labelled \p TraceNames[I]. \returns false on an I/O error.
  bool writeChromeTrace(const std::string &Path,
                        const std::vector<std::string> &TraceNames) const;

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<size_t> OpenSpans;
  unsigned TraceId = 0;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - Epoch).count();
  }
};

/// One span around the enclosing scope.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name) : T(T), Index(T.open(Name)) {}
  ~ScopedSpan() { T.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  size_t Index;
};

/// The traced copy of the concurrent CEGIS loop.
class TracedCegis {
public:
  /// Flattens \p P (which must outlive this object and must not have been
  /// flattened elsewhere) under a "desugar.flatten" span.
  TracedCegis(ir::Program &P, cegis::CegisConfig Cfg, Tracer &T);

  /// Runs the loop under a "cegis.run" span. Fills the CegisStats fields
  /// that count work (verdict, iterations, prunes, checker and solver
  /// counters); the phase seconds are left at zero, since the spans
  /// carry the timings.
  cegis::CegisResult run();

  /// CheckResult::VisitedBytes summed over the run's checks.
  uint64_t visitedBytes() const { return VisitedBytes; }
  /// True when some check stopped at CheckerConfig::MaxStates.
  bool exhausted() const { return Exhausted; }
  /// Seconds taken by a second synth::projectTrace call on every
  /// counterexample, made after the loop so no span includes it. The
  /// same projection runs inside synth.learn (InductiveSynth::addTrace).
  double projectSeconds() const { return ProjectSeconds; }

private:
  ir::Program &P;
  cegis::CegisConfig Cfg;
  Tracer &T;
  flat::FlatProgram FP;
  uint64_t VisitedBytes = 0;
  bool Exhausted = false;
  double ProjectSeconds = 0.0;
  std::vector<verify::Counterexample> Cexes;

  /// The loop body of ConcurrentCegis::run().
  void loop(cegis::CegisResult &R);
  /// Mirrors applyPrescreen() in Cegis.cpp. \returns true when the
  /// analyzer proved the sketch unresolvable.
  bool prescreen(synth::InductiveSynth &Synth, cegis::CegisResult &R);
};

} // namespace suite
} // namespace psketch

#endif // PSKETCH_BENCH_SUITE_TRACEDCEGIS_H
