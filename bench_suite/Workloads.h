//===- bench_suite/Workloads.h - The benchmark's fixed inputs ---*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads of bench_suite and the known answer of every row.
/// Each workload stresses a different layer (README.md gives the reasons):
///
///  * suite     — Figure 9 rows plus extension and example rows; the SAT
///                solver does most of the work.
///  * verify    — instances scaled beyond the paper; the model checker
///                does most of the work.
///  * verify_w4 — the verify rows with four checker workers.
///  * small     — many cheap instances, where per-instance fixed cost
///                dominates.
///
/// The rows are fixed; the seed only shuffles their order.
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_BENCH_SUITE_WORKLOADS_H
#define PSKETCH_BENCH_SUITE_WORKLOADS_H

#include "ir/Program.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace psketch {
namespace suite {

/// One sketch instance the CEGIS loop runs to a verdict.
struct Row {
  std::string Name; ///< e.g. "queueE2 ed(ed|ed)" or "enqueue.psk"
  /// True when Build parses mini-PSketch text (frontend::parseProgram);
  /// false when it calls a C++ sketch function (src/benchmarks).
  bool Parsed = false;
  /// Builds a fresh, unflattened program. Never returns null.
  std::function<std::unique_ptr<ir::Program>()> Build;
  /// The known answer: the paper's verdict for Figure 9 rows, and the
  /// verdict recorded when the row was added for every other row.
  bool Resolvable = true;
};

struct Workload {
  std::string Name;
  /// The first three rows are the cheapest; they form the untimed
  /// warm-up pass.
  std::vector<Row> Rows;
  unsigned Workers = 1; ///< model-checker workers
};

/// Builds workload \p Name, reading `.psk` inputs from \p InputsDir.
/// \returns false with \p Error set on an unknown name or unreadable
/// input.
bool makeWorkload(const std::string &Name, const std::string &InputsDir,
                  Workload &Out, std::string &Error);

} // namespace suite
} // namespace psketch

#endif // PSKETCH_BENCH_SUITE_WORKLOADS_H
