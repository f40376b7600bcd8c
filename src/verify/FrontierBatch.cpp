//===- verify/FrontierBatch.cpp --------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "verify/FrontierBatch.h"

#include <cassert>

using namespace psketch;
using namespace psketch::verify;
using namespace psketch::verify::detail;

void FrontierBatch::grow(unsigned NIn) {
  if (SArr.size() >= NIn)
    return;
  SArr.resize(NIn);
  Suffix.resize(NIn);
  ChainFp.resize(NIn);
  SteppedMask.resize(NIn);
  SleepArr.resize(NIn);
  WakeArr.resize(NIn);
  FpArr.resize(NIn);
  CtxArr.resize(NIn);
  PermArr.resize(NIn);
  EscArr.resize(NIn);
  InsArr.resize(NIn);
  Outcomes.resize(NIn);
  Viols.resize(NIn);
  FreshArr.resize(NIn);
}

bool FrontierBatch::chainLane(const exec::Machine &M, PorMode Por, unsigned K,
                              const std::vector<TraceStep> &Path,
                              Counterexample &Cex, bool TrackFp) {
  size_t Before = Suffix[K].size();
  Counterexample Local;
  if (!advanceLocal(M, Por, SArr[K], Suffix[K], Local)) {
    // advanceLocal already appended the violating step to Suffix[K] and
    // copied it into Local.Steps, so Path + Local.Steps is the full trace.
    Cex.Steps = Path;
    Cex.Steps.insert(Cex.Steps.end(), Local.Steps.begin(), Local.Steps.end());
    Cex.V = Local.V;
    Cex.Where = Local.Where;
    Cex.DeadlockSet = Local.DeadlockSet;
    return false;
  }
  for (size_t I = Before; I < Suffix[K].size(); ++I) {
    const TraceStep &St = Suffix[K][I];
    if (St.Thread < 64)
      SteppedMask[K] |= 1ull << St.Thread;
    if (TrackFp)
      ChainFp[K].unionWith(M.stepFootprint(St.Thread, St.Pc));
  }
  return true;
}

bool FrontierBatch::generate(const exec::Machine &M, PorMode Por,
                             const exec::State &Parent, const unsigned *Ctxs,
                             const uint64_t *ChildSleep, unsigned NIn,
                             const std::vector<TraceStep> &Path,
                             Counterexample &Cex) {
  grow(NIn);
  N = NIn;
  M.expandBatch(Parent, Ctxs, NIn, SArr.data(), Outcomes.data(), Viols.data());
  for (unsigned K = 0; K < NIn; ++K) {
    CtxArr[K] = Ctxs[K];
    SleepArr[K] = ChildSleep ? ChildSleep[K] : 0;
    if (Outcomes[K].Result == exec::StepResult::Violated) {
      Cex.Steps = Path;
      Cex.Steps.push_back(TraceStep{Ctxs[K], Outcomes[K].ExecutedPc});
      Cex.V = Viols[K];
      Cex.Where = Counterexample::Phase::Parallel;
      return false;
    }
    assert(Outcomes[K].Result == exec::StepResult::Ok &&
           "chosen thread must step");
    Suffix[K].clear();
    Suffix[K].push_back(TraceStep{Ctxs[K], Outcomes[K].ExecutedPc});
    SteppedMask[K] = Ctxs[K] < 64 ? (1ull << Ctxs[K]) : 0;
    ChainFp[K] = M.stepFootprint(Ctxs[K], Outcomes[K].ExecutedPc);
    if (!chainLane(M, Por, K, Path, Cex, /*TrackFp=*/true))
      return false;
  }
  return true;
}

bool FrontierBatch::generateMulti(const exec::Machine &M, PorMode Por,
                                  const exec::State *const *Parents,
                                  const unsigned *Ctxs, unsigned NIn,
                                  Counterexample &Cex, unsigned &FailLane) {
  static const std::vector<TraceStep> EmptyPath;
  grow(NIn);
  N = NIn;
  M.expandBatch(Parents, Ctxs, NIn, SArr.data(), Outcomes.data(),
                Viols.data());
  for (unsigned K = 0; K < NIn; ++K) {
    CtxArr[K] = Ctxs[K];
    SleepArr[K] = 0;
    if (Outcomes[K].Result == exec::StepResult::Violated) {
      FailLane = K;
      Cex.Steps = {TraceStep{Ctxs[K], Outcomes[K].ExecutedPc}};
      Cex.V = Viols[K];
      Cex.Where = Counterexample::Phase::Parallel;
      return false;
    }
    assert(Outcomes[K].Result == exec::StepResult::Ok &&
           "chosen thread must step");
    Suffix[K].clear();
    Suffix[K].push_back(TraceStep{Ctxs[K], Outcomes[K].ExecutedPc});
    SteppedMask[K] = Ctxs[K] < 64 ? (1ull << Ctxs[K]) : 0;
    ChainFp[K] = M.stepFootprint(Ctxs[K], Outcomes[K].ExecutedPc);
    if (!chainLane(M, Por, K, EmptyPath, Cex, /*TrackFp=*/true)) {
      FailLane = K;
      return false;
    }
  }
  return true;
}

bool FrontierBatch::generateRoot(const exec::Machine &M, PorMode Por,
                                 const exec::State &Start,
                                 const std::vector<TraceStep> &Path,
                                 Counterexample &Cex) {
  grow(1);
  N = 1;
  SArr[0] = Start;
  CtxArr[0] = 0;
  SleepArr[0] = 0;
  Suffix[0].clear();
  // The root has no parent verdicts to reuse; force full classification
  // and skip footprint accounting.
  SteppedMask[0] = ~0ull;
  ChainFp[0] = exec::Footprint();
  return chainLane(M, Por, 0, Path, Cex, /*TrackFp=*/false);
}

void FrontierBatch::fingerprint(const exec::Machine &M,
                                const Canonicalizer *Canon,
                                StateHashFn Hash) {
  UseCanon = Canon && Canon->active();
  Cn = UseCanon ? Canon : nullptr;
  if (UseCanon) {
    Raw.reset(M.schedWords(), N);
    for (unsigned K = 0; K < N; ++K)
      Raw.setLane(K, SArr[K].words());
    Canon->canonicalizeBatch(Raw, N, Canonical, PermArr.data());
    M.fingerprintBatchWith(Canonical, N, Hash, FpArr.data(), EscArr.data());
    return;
  }
  // No canonicalization: no SoA block at all. The SIMD kernel
  // transposes lanes in registers as it hashes (hashWordsBatchPtrs),
  // and the probes read the AoS states directly, so the word-major
  // staging copy — pure overhead at these batch widths (measured;
  // docs/BATCHING.md) — never happens.
  WordPtrs.resize(N);
  for (unsigned K = 0; K < N; ++K) {
    PermArr[K] = Canonicalizer::IdentityPerm;
    WordPtrs[K] = SArr[K].words();
  }
  M.fingerprintBatchPtrsWith(WordPtrs.data(), N, Hash, FpArr.data(),
                             EscArr.data());
}

void FrontierBatch::noteEntered(const exec::Machine &M) const {
  uint64_t Hits = 0;
  for (unsigned K = 0; K < N; ++K) {
    if (EscArr[K])
      M.notePackEscape();
    Hits += PermArr[K] != Canonicalizer::IdentityPerm;
  }
  if (Cn)
    Cn->noteHits(Hits);
}

void FrontierBatch::probeMask(const exec::Machine &M, VisitedTable &Visited) {
  // Identity coordinates: probe the lane states in place (in Exact mode
  // through the prefetch-pipelined sweep; under VisitedStore::Spill the
  // table also pre-answers the batch's disk-tier membership in one
  // sorted run sweep). Sleep masks need no automorphism translation,
  // and the SoA block was never built.
  if (!UseCanon) {
    WordPtrs.resize(N);
    for (unsigned K = 0; K < N; ++K)
      WordPtrs[K] = SArr[K].words();
    Visited.insertMaskWordsBatch(M, WordPtrs.data(), FpArr.data(),
                                 SleepArr.data(), N, InsArr.data(),
                                 WakeArr.data());
  } else {
    Visited.insertMaskBatch(M, Canonical, N, FpArr.data(), PermArr.data(),
                            SleepArr.data(), InsArr.data(), WakeArr.data());
  }
  noteEntered(M);
}

void FrontierBatch::probeShared(const exec::Machine &M,
                                ShardedVisited &Visited) {
  // With no canonicalizer the block was never built: Canonical is only
  // read when AoS is null, i.e. in the canon case where it is valid.
  Visited.insertBatch(M, Canonical, N, FpArr.data(), FreshArr.data(),
                      UseCanon ? nullptr : SArr.data());
  for (unsigned K = 0; K < N; ++K) {
    InsArr[K] = FreshArr[K] ? InsertOutcome::Fresh : InsertOutcome::Prune;
    WakeArr[K] = 0;
  }
  noteEntered(M);
}

bool FrontierBatch::classify(unsigned K, const exec::Machine &M,
                             const uint8_t *ParentVerdicts,
                             std::vector<unsigned> &ReadyOut,
                             std::vector<TraceStep> &BlockedOut,
                             std::vector<uint8_t> &VerdictsOut,
                             const std::vector<TraceStep> &Path,
                             Counterexample &Cex) {
  ReadyOut.clear();
  BlockedOut.clear();
  VerdictsOut.resize(M.numThreads());
  exec::State &S = SArr[K];
  for (unsigned Ctx = 0; Ctx < M.numThreads(); ++Ctx) {
    Readiness R;
    // A thread's readiness depends only on its (already normalized) pc
    // and the cells its guard/wait conditions read, all inside its static
    // step footprint; reuse the parent's verdict when this lane's chain
    // provably left both alone. Threads >= 64 fall outside the stepped
    // mask and are always re-evaluated.
    bool Reuse = ParentVerdicts && Ctx < 64 &&
                 !((SteppedMask[K] >> Ctx) & 1) &&
                 !ChainFp[K].conflictsWith(M.stepFootprint(Ctx, S.pc(Ctx)));
    if (Reuse) {
      R = static_cast<Readiness>(ParentVerdicts[Ctx]);
      assert(R != Readiness::WaitViolation && "parent verdict survived");
    } else {
      exec::Violation V;
      R = readiness(M, S, Ctx, V);
      if (R == Readiness::WaitViolation) {
        Cex.Steps = Path;
        Cex.Steps.push_back(TraceStep{Ctx, S.pc(Ctx)});
        Cex.V = V;
        Cex.Where = Counterexample::Phase::Parallel;
        return false;
      }
    }
    VerdictsOut[Ctx] = static_cast<uint8_t>(R);
    if (R == Readiness::Ready)
      ReadyOut.push_back(Ctx);
    else if (R == Readiness::Blocked)
      BlockedOut.push_back(TraceStep{Ctx, S.pc(Ctx)});
  }
  return true;
}
