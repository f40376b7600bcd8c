//===- cegis/Enumerate.cpp -------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "cegis/Enumerate.h"

#include "exec/Machine.h"
#include "support/Rng.h"

#include <limits>

using namespace psketch;
using namespace psketch::cegis;
using exec::ExecOutcome;
using exec::Machine;
using exec::State;
using exec::StepResult;
using exec::Violation;

namespace {

/// One schedule's cost: executed steps plus blocked attempts (lock/wait
/// contention shows up as blocking, so candidates that hold locks longer
/// or spin more score worse). \p Init is the machine's initial state,
/// built once by the caller and copied per schedule (a flat memcpy).
/// Returns UINT64_MAX on any failure.
uint64_t scheduleCost(const Machine &M, const State &Init, Rng *R) {
  State S = Init;
  Violation V;
  uint64_t Cost = 0;

  auto RunSequential = [&](unsigned Ctx) {
    for (;;) {
      ExecOutcome Out = M.execStep(S, Ctx, V);
      if (Out.Result == StepResult::Ok) {
        ++Cost;
        continue;
      }
      return Out.Result == StepResult::Finished;
    }
  };

  if (!RunSequential(M.prologueCtx()))
    return std::numeric_limits<uint64_t>::max();

  // Parallel phase: round-robin, or a seeded random pick among the
  // unfinished threads; blocked attempts are charged as waiting time.
  for (uint64_t Guard = 0;; ++Guard) {
    if (Guard > 1u << 20)
      return std::numeric_limits<uint64_t>::max(); // livelocked schedule
    std::vector<unsigned> Unfinished;
    for (unsigned T = 0; T < M.numThreads(); ++T)
      if (!M.isFinished(S, T))
        Unfinished.push_back(T);
    if (Unfinished.empty())
      break;
    bool Moved = false;
    unsigned First = R ? static_cast<unsigned>(R->below(Unfinished.size()))
                       : 0;
    for (size_t I = 0; I < Unfinished.size(); ++I) {
      unsigned T = Unfinished[(First + I) % Unfinished.size()];
      ExecOutcome Out = M.execStep(S, T, V);
      if (Out.Result == StepResult::Ok) {
        ++Cost;
        Moved = true;
        break;
      }
      if (Out.Result == StepResult::Violated)
        return std::numeric_limits<uint64_t>::max();
      ++Cost; // a blocked attempt costs a step of waiting
    }
    if (!Moved && Unfinished.size() == 1)
      return std::numeric_limits<uint64_t>::max(); // stuck
    if (!Moved)
      continue; // all probed threads blocked this instant; retry
  }

  if (!RunSequential(M.epilogueCtx()))
    return std::numeric_limits<uint64_t>::max();
  return Cost;
}

} // namespace

uint64_t psketch::cegis::measureCandidate(const flat::FlatProgram &FP,
                                          const ir::HoleAssignment &Candidate) {
  Machine M(FP, Candidate);
  const State Init = M.initialState(); // shared by all four schedules
  uint64_t Total = scheduleCost(M, Init, nullptr); // deterministic RR
  if (Total == std::numeric_limits<uint64_t>::max())
    return Total;
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    Rng R(Seed * 0x9e3779b9u);
    uint64_t Cost = scheduleCost(M, Init, &R);
    if (Cost == std::numeric_limits<uint64_t>::max())
      return Cost;
    Total += Cost;
  }
  return Total;
}
