//===- bench/bench_autotune.cpp - Section 8.3.1's autotuning hook ----------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Section 2 ends by noting that two different correct Dequeues have
// incomparable performance and that picking among correct candidates is
// an autotuning problem (also 8.3.1). This bench enumerates multiple
// verified implementations of the sketched queue and the fine-locked set
// and ranks them by a deterministic execution-cost measure, demonstrating
// the synthesize-many-then-measure workflow.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/FineSet.h"
#include "benchmarks/Queue.h"
#include "benchmarks/Workload.h"
#include "cegis/Enumerate.h"

#include <cstdio>
#include <set>

using namespace psketch;
using namespace psketch::bench;

static void census(const char *Name, std::unique_ptr<ir::Program> P,
                   unsigned MaxSolutions) {
  cegis::CegisConfig Cfg;
  Cfg.MaxIterations = 2000;
  Cfg.TimeLimitSeconds = 300;
  // Explicit rather than the env-derived default: this bench exercises
  // the scoped-exclusion path (enumeration under an activation-literal
  // scope; cegis/Cegis.cpp), which only engages with warm start on.
  Cfg.SolverWarmStart = true;
  auto R = cegis::enumerateSolutions(*P, MaxSolutions, Cfg);
  uint64_t Conflicts = 0;
  for (const synth::SolveRecord &Rec : R.Stats.SolveLog)
    Conflicts += Rec.Conflicts;
  std::printf("%-24s |C|=%-10s solutions=%zu%s itns=%u total=%.2fs\n", Name,
              P->candidateSpaceSize().str().c_str(), R.Solutions.size(),
              R.Exhausted ? " (all)" : "", R.Stats.Iterations,
              R.Stats.TotalSeconds);
  std::printf("  solver: %zu solve(s), %llu probe(s), %llu conflict(s), "
              "Ssolve %.3fs (scoped exclusions)\n",
              R.Stats.SolveLog.size(),
              static_cast<unsigned long long>(R.Stats.SolverProbes),
              static_cast<unsigned long long>(Conflicts),
              R.Stats.SsolveSeconds);
  uint64_t Best = ~0ull, Worst = 0;
  std::set<uint64_t> Classes;
  for (const auto &S : R.Solutions) {
    Best = std::min(Best, S.Cost);
    Worst = std::max(Worst, S.Cost);
    Classes.insert(S.Cost);
  }
  if (!R.Solutions.empty())
    std::printf("  cost: best %llu, worst %llu steps; %zu distinct cost "
                "class(es)%s\n",
                static_cast<unsigned long long>(Best),
                static_cast<unsigned long long>(Worst), Classes.size(),
                Classes.size() == 1
                    ? " (the candidates differ only in dont-care holes "
                      "on this workload)"
                    : "");
  std::fflush(stdout);
}

int main() {
  std::printf("Autotuning extension: enumerate verified candidates, rank "
              "by measured cost\n");
  std::printf("--------------------------------------------------------------"
              "--------------\n");
  census("queueDE1 ed(ed|ed)",
         buildQueue(parseWorkload("ed(ed|ed)"), QueueOptions{false, true}),
         12);
  census("fineset1 ar(ar|ar)",
         buildFineSet(parseWorkload("ar(ar|ar)"), FineSetOptions{false}),
         12);
  return 0;
}
