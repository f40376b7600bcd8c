//===- tests/test_spill.cpp - disk-backed visited tier tests ---------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The out-of-core visited store guarantees under test (docs/SPILL.md):
//  * the tag filter never false-negatives over its inserted set;
//  * SpillStore membership exactly matches a
//    reference set across multiple runs and through run merges;
//  * the store removes its spill directory on destruction;
//  * an unwritable spill directory, or a write failure mid-stream,
//    degrades to the in-RAM store (CheckResult::SpillFallback) without
//    changing the verdict or the explored-state count;
//  * a visited budget aborts a Memory-store search but a Spill-store
//    search finishes the identical exhaustive search out of core;
//  * Memory and Spill agree on verdict, deterministic counterexample,
//    and sequential state counts while eviction is actually running.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "desugar/Flatten.h"
#include "support/Rng.h"
#include "verify/ModelChecker.h"
#include "verify/SpillStore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <vector>

using namespace psketch;
using namespace psketch::verify;
using namespace psketch::verify::detail;

namespace {

/// One suite row by family and test label (the suite is linked into the
/// test binary already; no fixture programs needed).
bench::SuiteEntry findRow(const std::string &Family, const std::string &Test) {
  for (const bench::SuiteEntry &E : bench::paperSuite(Family))
    if (E.Test == Test)
      return E;
  ADD_FAILURE() << "no suite row " << Family << " " << Test;
  return bench::paperSuite(Family).front();
}

ir::HoleAssignment referenceCandidate(const bench::SuiteEntry &E,
                                      const ir::Program &P) {
  if (E.Reference)
    return E.Reference(P);
  return ir::HoleAssignment(P.holes().size(), 0);
}

void expectSameCex(const CheckResult &A, const CheckResult &B,
                   const std::string &Tag) {
  ASSERT_EQ(A.Cex.has_value(), B.Cex.has_value()) << Tag;
  if (!A.Cex)
    return;
  ASSERT_EQ(A.Cex->Steps.size(), B.Cex->Steps.size()) << Tag;
  for (size_t I = 0; I < A.Cex->Steps.size(); ++I)
    EXPECT_TRUE(A.Cex->Steps[I] == B.Cex->Steps[I]) << Tag << " step " << I;
  EXPECT_EQ(A.Cex->V.Label, B.Cex->V.Label) << Tag;
}

/// A run-to-exhaustion configuration whose every visited entry is a
/// spill-eligible (mask-0) fingerprint.
CheckerConfig exhaustiveFpConfig() {
  CheckerConfig Cfg;
  Cfg.UseRandomFalsifier = false;
  Cfg.Visited = VisitedMode::Fingerprint;
  Cfg.Por = PorMode::Off;
  Cfg.Symmetry = SymmetryMode::Off;
  return Cfg;
}

} // namespace

//===----------------------------------------------------------------------===//
// TagFilter: the no-false-negative contract.
//===----------------------------------------------------------------------===//

TEST(Spill, TagFilterNoFalseNegatives) {
  Rng R(42);
  TagFilter F;
  std::vector<uint64_t> Inserted;
  F.reset(64);
  for (int Round = 0; Round < 3; ++Round) {
    // Grow the way the store does: rebuild from the durable set, then
    // add a fresh batch.
    std::vector<uint64_t> Fresh;
    for (int I = 0; I < 500; ++I)
      Fresh.push_back(R.next());
    if (F.needsGrow(Fresh.size())) {
      F.reset(Inserted.size() + Fresh.size());
      for (uint64_t Fp : Inserted)
        F.insert(Fp);
    }
    for (uint64_t Fp : Fresh) {
      F.insert(Fp);
      Inserted.push_back(Fp);
    }
    for (uint64_t Fp : Inserted)
      EXPECT_TRUE(F.mayContain(Fp));
  }
  EXPECT_GT(F.bytes(), 0u);
  // False positives are allowed but must be rare at 16-bit tags: with
  // 1500 entries, ~1/40 of 2000 random absent probes aliasing would be
  // far outside spec.
  unsigned FalsePositives = 0;
  for (int I = 0; I < 2000; ++I)
    FalsePositives += F.mayContain(R.next());
  EXPECT_LT(FalsePositives, 200u);
}

//===----------------------------------------------------------------------===//
// SpillStore: membership parity, merges, cleanup.
//===----------------------------------------------------------------------===//

TEST(Spill, StoreContainsMatchesReference) {
  SpillStore Store("");
  ASSERT_TRUE(Store.ok());
  Rng R(7);
  std::set<uint64_t> Reference;
  // Enough rounds to push shard 0 past MaxRunsPerShard and trigger a
  // merge (every round spills one sorted run into each touched shard).
  for (int Round = 0; Round < 10; ++Round) {
    std::vector<uint64_t> Batch;
    for (int I = 0; I < 2000; ++I)
      Batch.push_back(R.next());
    std::sort(Batch.begin(), Batch.end());
    Batch.erase(std::unique(Batch.begin(), Batch.end()), Batch.end());
    // One sorted duplicate-free slice per shard, like spillNow.
    for (size_t Lo = 0; Lo < Batch.size();) {
      size_t Hi = Lo;
      unsigned Shard = Batch[Lo] & 63;
      while (Hi < Batch.size() && (Batch[Hi] & 63) == Shard)
        ++Hi;
      ASSERT_TRUE(Store.spill(Shard, Batch.data() + Lo, Hi - Lo));
      Lo = Hi;
    }
    Reference.insert(Batch.begin(), Batch.end());
  }
  EXPECT_EQ(Store.spilledStates(), Reference.size());
  EXPECT_EQ(Store.spillBytes(), Reference.size() * sizeof(uint64_t));
  EXPECT_GT(Store.runMerges(), 0u);

  // Parity on every spilled fingerprint plus absent probes.
  for (uint64_t Fp : Reference)
    EXPECT_TRUE(Store.contains(Fp & 63, Fp));
  for (int I = 0; I < 4000; ++I) {
    uint64_t Fp = R.next();
    EXPECT_EQ(Store.contains(Fp & 63, Fp), Reference.count(Fp) != 0);
  }
}

TEST(Spill, StoreCleansUpDirectory) {
  std::string Dir;
  {
    SpillStore Store("");
    ASSERT_TRUE(Store.ok());
    Dir = Store.dir();
    uint64_t Fps[] = {64, 128, 192};
    ASSERT_TRUE(Store.spill(0, Fps, 3));
    EXPECT_TRUE(std::filesystem::exists(Dir));
  }
  EXPECT_FALSE(std::filesystem::exists(Dir));
}

TEST(Spill, UnwritableDirMarksFailed) {
  // procfs rejects mkdir even for root, on every Linux box.
  SpillStore Store("/proc/psketch-no-such-dir");
  EXPECT_FALSE(Store.ok());
  uint64_t Fp = 64;
  EXPECT_FALSE(Store.spill(0, &Fp, 1));
  EXPECT_FALSE(Store.contains(0, Fp));
}

//===----------------------------------------------------------------------===//
// Checker integration: fallback, budget, agreement.
//===----------------------------------------------------------------------===//

TEST(Spill, CheckerFallsBackWhenSpillDirUnwritable) {
  bench::SuiteEntry E = findRow("dinphilo", "N=3,T=5");
  auto P = E.Build();
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, referenceCandidate(E, *P));

  CheckerConfig Mem = exhaustiveFpConfig();
  CheckResult RM = checkCandidate(M, Mem);

  CheckerConfig Spill = Mem;
  Spill.Store = VisitedStore::Spill;
  Spill.SpillDir = "/proc/psketch-no-such-dir";
  Spill.VisitedBudgetBytes = 1 << 14;
  CheckResult RS = checkCandidate(M, Spill);

  EXPECT_TRUE(RS.SpillFallback);
  EXPECT_EQ(RS.SpilledStates, 0u);
  // The budget is waived on fallback: the search must complete in RAM
  // with the Memory-store result, not abort.
  EXPECT_FALSE(RS.BudgetAborted);
  EXPECT_EQ(RM.Ok, RS.Ok);
  EXPECT_EQ(RM.StatesExplored, RS.StatesExplored);
}

TEST(Spill, MidStreamWriteFailureFallsBackSoundly) {
  bench::SuiteEntry E = findRow("dinphilo", "N=3,T=5");
  auto P = E.Build();
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, referenceCandidate(E, *P));

  CheckerConfig Mem = exhaustiveFpConfig();
  CheckResult RM = checkCandidate(M, Mem);

  CheckerConfig Spill = Mem;
  Spill.Store = VisitedStore::Spill;
  Spill.VisitedBudgetBytes = RM.VisitedBytes / 8 + 1;
  // Let the first eviction(s) land, then fail a write mid-stream — the
  // ENOSPC shape: the tier built some runs and then the disk vanished.
  SpillStore::TestFailAfterBytes = 8192;
  CheckResult RS = checkCandidate(M, Spill);
  SpillStore::TestFailAfterBytes = SIZE_MAX;

  EXPECT_TRUE(RS.SpillFallback);
  EXPECT_FALSE(RS.BudgetAborted);
  EXPECT_EQ(RM.Ok, RS.Ok);
  EXPECT_EQ(RM.StatesExplored, RS.StatesExplored);
}

TEST(Spill, MemoryBudgetAbortsSpillCompletes) {
  bench::SuiteEntry E = findRow("dinphilo", "N=3,T=5");
  auto P = E.Build();
  flat::FlatProgram FP = flat::flatten(*P);
  exec::Machine M(FP, referenceCandidate(E, *P));

  CheckerConfig Mem = exhaustiveFpConfig();
  CheckResult Unlimited = checkCandidate(M, Mem);
  ASSERT_FALSE(Unlimited.Exhausted);
  uint64_t Cap = std::max<uint64_t>(Unlimited.VisitedBytes / 4, 4096);

  CheckerConfig Capped = Mem;
  Capped.VisitedBudgetBytes = Cap;
  CheckResult RC = checkCandidate(M, Capped);
  EXPECT_TRUE(RC.BudgetAborted);
  EXPECT_TRUE(RC.Exhausted);
  EXPECT_LT(RC.StatesExplored, Unlimited.StatesExplored);

  CheckerConfig Spill = Capped;
  Spill.Store = VisitedStore::Spill;
  CheckResult RS = checkCandidate(M, Spill);
  EXPECT_FALSE(RS.BudgetAborted);
  EXPECT_FALSE(RS.SpillFallback);
  EXPECT_GT(RS.SpilledStates, 0u);
  EXPECT_GT(RS.SpillBytes, 0u);
  EXPECT_EQ(RS.StatesExplored, Unlimited.StatesExplored);
  EXPECT_EQ(RS.Ok, Unlimited.Ok);
  // End-to-end accounting: RAM + disk covers every deduplicated state's
  // 8-byte fingerprint at least once.
  EXPECT_GE(RS.VisitedBytes + RS.SpillBytes, 8 * RS.StatesExplored);
}

TEST(Spill, AgreementAndStateParityAcrossStores) {
  bench::SuiteEntry E = findRow("dinphilo", "N=3,T=5");
  auto P = E.Build();
  flat::FlatProgram FP = flat::flatten(*P);
  ir::HoleAssignment Ref = referenceCandidate(E, *P);
  ir::HoleAssignment Zero(P->holes().size(), 0);
  struct Cand {
    const char *Label;
    const ir::HoleAssignment *A;
  } Cands[] = {{"ref", &Ref}, {"zero", &Zero}};

  for (const Cand &Ca : Cands) {
    exec::Machine M(FP, *Ca.A);
    for (VisitedMode Mode : {VisitedMode::Exact, VisitedMode::Fingerprint}) {
      for (PorMode Por : {PorMode::Off, PorMode::Ample}) {
        std::string Tag = std::string(Ca.Label) +
                          (Mode == VisitedMode::Exact ? "/exact" : "/fp") +
                          (Por == PorMode::Off ? "/off" : "/ample");
        CheckerConfig Mem;
        Mem.Visited = Mode;
        Mem.Por = Por;
        CheckResult RM = checkCandidate(M, Mem);

        CheckerConfig Spill = Mem;
        Spill.Store = VisitedStore::Spill;
        Spill.VisitedBudgetBytes =
            std::max<uint64_t>(RM.VisitedBytes / 4, 4096);
        CheckResult RS = checkCandidate(M, Spill);

        EXPECT_FALSE(RS.SpillFallback) << Tag;
        EXPECT_FALSE(RS.BudgetAborted) << Tag;
        EXPECT_EQ(RM.Ok, RS.Ok) << Tag;
        EXPECT_EQ(RM.StatesExplored, RS.StatesExplored) << Tag;
        expectSameCex(RM, RS, Tag);
        // The clean exhaustive cells must actually exercise eviction —
        // otherwise this test proves nothing about the disk tier.
        if (RM.Ok)
          EXPECT_GT(RS.SpilledStates, 0u) << Tag;
      }
    }
  }
}
