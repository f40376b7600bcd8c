//===- tests/test_state_engine.cpp - state engine tests --------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The engine-equivalence guarantees under test:
//  * the undo-log DFS and the legacy copy-per-successor DFS are
//    observationally identical (verdict, counterexample, state counts),
//    on a counter program and on suite rows under ample POR, symmetry
//    and packed keys;
//  * Machine::stateKey renders raw, packed and escaped keys exactly as
//    encodeWords / fingerprintWords do, and the checker counts one
//    escape per entered state, in every engine;
//  * randomized step/undo sequences restore states bit-for-bit;
//  * under a hash where every state collides, the sequential and the
//    sharded visited tables still admit each distinct state once and
//    dedup every revisit, across table growth.
//
//===----------------------------------------------------------------------===//

#include "analysis/AbsInt.h"
#include "benchmarks/Suite.h"
#include "desugar/Flatten.h"
#include "support/Hash.h"
#include "support/Rng.h"
#include "verify/ModelChecker.h"
#include "verify/Visited.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

using namespace psketch;
using namespace psketch::ir;
using namespace psketch::verify;

namespace {

/// Two threads increment a shared counter Count times each; Atomic selects
/// protected or racy increments. Epilogue asserts the exact total.
void buildCounter(Program &P, bool Atomic, int Count, int Expected) {
  unsigned X = P.addGlobal("x", Type::Int, 0);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("inc");
    BodyId B = BodyId::thread(Id);
    unsigned Tmp = P.addLocal(B, "tmp", Type::Int, 0);
    std::vector<StmtRef> Stmts;
    for (int I = 0; I < Count; ++I) {
      StmtRef Read = P.assign(P.locLocal(Tmp), P.global(X));
      StmtRef Write = P.assign(
          P.locGlobal(X), P.add(P.local(Tmp, Type::Int), P.constInt(1)));
      if (Atomic)
        Stmts.push_back(P.atomic(P.seq({Read, Write})));
      else {
        Stmts.push_back(Read);
        Stmts.push_back(Write);
      }
    }
    P.setRoot(B, P.seq(std::move(Stmts)));
  }
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(Expected)), "total"));
}

/// The lightest entry of one suite family (the suite orders light first).
std::optional<bench::SuiteEntry> lightestRow(const std::string &Family) {
  auto Entries = bench::paperSuite(Family);
  if (Entries.empty())
    return std::nullopt;
  size_t Best = 0;
  for (size_t I = 1; I < Entries.size(); ++I)
    if (Entries[I].CostClass < Entries[Best].CostClass)
      Best = I;
  return Entries[Best];
}

/// Collects \p Want states by random walk from the initial state (the
/// walk restarts when a step reports anything but Ok).
std::vector<exec::State> randomWalkStates(const exec::Machine &M,
                                          unsigned Want, uint64_t Seed) {
  std::vector<exec::State> Out;
  Rng R(Seed);
  exec::State S = M.initialState();
  while (Out.size() < Want) {
    unsigned Ctx = static_cast<unsigned>(R.below(M.numContexts()));
    exec::Violation V;
    if (M.execStep(S, Ctx, V).Result != exec::StepResult::Ok) {
      S = M.initialState();
      continue;
    }
    Out.push_back(S);
  }
  return Out;
}

/// Value bounds that every reachable state of \p M violates: each
/// global slot is claimed constant at a value no counter program
/// reaches, so every key takes the escape path.
exec::ValueBounds escapingBounds(const exec::Machine &M) {
  exec::ValueBounds Lies;
  for (unsigned G = 0; G < M.globalSlots(); ++G)
    Lies.GlobalSlots.push_back({1000, 1000});
  exec::State Shape = M.initialState();
  Lies.Locals.resize(M.numContexts());
  for (unsigned Ctx = 0; Ctx < M.numContexts(); ++Ctx)
    Lies.Locals[Ctx].resize(Shape.numLocals(Ctx), {0, 0});
  return Lies;
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

} // namespace

//===----------------------------------------------------------------------===//
// Undo log: randomized round trips and copy semantics.
//===----------------------------------------------------------------------===//

TEST(StateEngine, RandomizedStepUndoRoundTrip) {
  Program P;
  buildCounter(P, /*Atomic=*/false, 2, 4);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  Rng R(0x57A7Eull);
  for (int Trial = 0; Trial < 25; ++Trial) {
    exec::State S = M.initialState();
    exec::UndoLog Log;
    S.attachLog(&Log);
    std::vector<exec::State> Snaps;
    std::vector<exec::UndoLog::Mark> Marks;
    for (int Step = 0; Step < 14; ++Step) {
      Snaps.push_back(S); // a copy; deliberately detached from the log
      Marks.push_back(Log.mark());
      unsigned Ctx = static_cast<unsigned>(R.below(M.numContexts()));
      exec::Violation V;
      M.execStep(S, Ctx, V); // any outcome: every mutation is logged
    }
    // Unwind: after reverting to mark I the state must equal snapshot I
    // bit for bit (and hence key for key).
    for (size_t I = Snaps.size(); I-- > 0;) {
      S.revertTo(Marks[I]);
      EXPECT_TRUE(S == Snaps[I]) << "trial " << Trial << " mark " << I;
      EXPECT_EQ(M.encodeState(S), M.encodeState(Snaps[I]));
      EXPECT_EQ(M.fingerprintState(S), M.fingerprintState(Snaps[I]));
    }
  }
}

TEST(StateEngine, CopiesDetachFromUndoLog) {
  Program P;
  buildCounter(P, /*Atomic=*/true, 1, 2);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  exec::State S = M.initialState();
  exec::UndoLog Log;
  S.attachLog(&Log);
  exec::State Copy = S;
  exec::Violation V;
  M.execStep(Copy, 0, V); // the snapshot's mutations must not be logged
  EXPECT_EQ(Log.size(), 0u);
  M.execStep(S, 0, V);
  EXPECT_GT(Log.size(), 0u);
  size_t After = Log.size();
  exec::State Assigned;
  Assigned = S; // copy-assignment must also drop the log
  M.execStep(Assigned, 1, V);
  EXPECT_EQ(Log.size(), After);
}

//===----------------------------------------------------------------------===//
// Undo-log DFS vs legacy copy DFS: observationally identical.
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Cfg on \p M with the undo-log DFS and with the copy DFS and
/// demands identical verdicts, search counters and counterexamples.
void expectUndoMatchesCopy(const exec::Machine &M, CheckerConfig Cfg,
                           const std::string &Tag) {
  Cfg.UseRandomFalsifier = false; // isolate the exhaustive phase
  Cfg.UseUndoLog = true;
  CheckResult RU = checkCandidate(M, Cfg);
  Cfg.UseUndoLog = false;
  CheckResult RC = checkCandidate(M, Cfg);
  EXPECT_EQ(RU.Ok, RC.Ok) << Tag;
  EXPECT_EQ(RU.StatesExplored, RC.StatesExplored) << Tag;
  EXPECT_EQ(RU.StatesDeduped, RC.StatesDeduped) << Tag;
  EXPECT_EQ(RU.AmpleStates, RC.AmpleStates) << Tag;
  EXPECT_EQ(RU.FullExpansions, RC.FullExpansions) << Tag;
  EXPECT_EQ(RU.SleepSkips, RC.SleepSkips) << Tag;
  EXPECT_EQ(RU.Exhausted, RC.Exhausted) << Tag;
  expectSameCex(RU, RC, Tag);
}

} // namespace

TEST(StateEngine, UndoDfsMatchesCopyDfs) {
  struct Scenario {
    bool Atomic;
    int Count;
    int Expected;
    PorMode Por;
  } Scenarios[] = {
      {true, 2, 4, PorMode::Local},   // clean run, local POR
      {false, 2, 4, PorMode::Local},  // racy failure, local POR
      {true, 2, 4, PorMode::Off},     // clean run, POR off
      {true, 2, 5, PorMode::Local},   // epilogue assertion failure
      {true, 2, 4, PorMode::Ample},   // clean run, ample + sleep sets
      {false, 2, 4, PorMode::Ample},  // racy failure, ample + sleep sets
      {true, 2, 5, PorMode::Ample},   // epilogue failure, ample
  };
  for (const Scenario &Sc : Scenarios) {
    Program PUndo, PCopy;
    buildCounter(PUndo, Sc.Atomic, Sc.Count, Sc.Expected);
    buildCounter(PCopy, Sc.Atomic, Sc.Count, Sc.Expected);
    CheckerConfig Cfg;
    Cfg.UseRandomFalsifier = false; // isolate the exhaustive phase
    Cfg.Por = Sc.Por;
    CheckerConfig Copy = Cfg;
    Copy.UseUndoLog = false;
    flat::FlatProgram FU = flat::flatten(PUndo);
    flat::FlatProgram FC = flat::flatten(PCopy);
    exec::Machine MU(FU, {});
    exec::Machine MC(FC, {});
    CheckResult RU = checkCandidate(MU, Cfg);
    CheckResult RC = checkCandidate(MC, Copy);
    std::string Tag = std::string("atomic=") + (Sc.Atomic ? "1" : "0") +
                      " por=" + std::to_string(static_cast<int>(Sc.Por));
    EXPECT_EQ(RU.Ok, RC.Ok) << Tag;
    EXPECT_EQ(RU.StatesExplored, RC.StatesExplored) << Tag;
    EXPECT_EQ(RU.StatesDeduped, RC.StatesDeduped) << Tag;
    EXPECT_EQ(RU.AmpleStates, RC.AmpleStates) << Tag;
    EXPECT_EQ(RU.FullExpansions, RC.FullExpansions) << Tag;
    EXPECT_EQ(RU.SleepSkips, RC.SleepSkips) << Tag;
    EXPECT_EQ(RU.Exhausted, RC.Exhausted) << Tag;
    expectSameCex(RU, RC, Tag);
  }

  // Suite rows build deep stacks, reduced frames and (under symmetry)
  // canonical keys: the reference and the all-zero candidate of the
  // lightest row of three families, under ample POR with symmetry off
  // and on, plus the analysis-tuned machine CEGIS would build for the
  // reference (packed keys, lock and heap footprints).
  bool SawPacked = false;
  for (const char *FamilyName : {"barrier1", "lazyset", "dinphilo"}) {
    std::string Family = FamilyName;
    auto Row = lightestRow(Family);
    ASSERT_TRUE(Row.has_value()) << Family;
    auto P = Row->Build();
    flat::FlatProgram FP = flat::flatten(*P);
    ir::HoleAssignment Ref = Row->Reference
                                 ? Row->Reference(*P)
                                 : ir::HoleAssignment(P->holes().size(), 0);
    ir::HoleAssignment Zero(P->holes().size(), 0);
    analysis::CandidateFacts Facts = analysis::analyzeCandidate(*P, FP, Ref);
    ASSERT_FALSE(Facts.Refuted) << Family;
    exec::MachineTuning Tuning;
    Tuning.Locks = &Facts.Locks;
    Tuning.Bounds = &Facts.Bounds;
    if (!Facts.Heap.empty())
      Tuning.Heap = &Facts.Heap;
    exec::Machine MRef(FP, Ref), MZero(FP, Zero), MTuned(FP, Ref, Tuning);
    SawPacked = SawPacked || MTuned.packedLayout().Enabled;
    for (SymmetryMode Sym : {SymmetryMode::Off, SymmetryMode::Orbit}) {
      CheckerConfig Cfg;
      Cfg.Por = PorMode::Ample;
      Cfg.Symmetry = Sym;
      std::string SymTag = Sym == SymmetryMode::Orbit ? "/sym" : "/nosym";
      expectUndoMatchesCopy(MRef, Cfg, Family + "/ref" + SymTag);
      expectUndoMatchesCopy(MZero, Cfg, Family + "/zero" + SymTag);
      expectUndoMatchesCopy(MTuned, Cfg, Family + "/tuned" + SymTag);
    }
  }
  EXPECT_TRUE(SawPacked) << "no tuned row packed its keys";
}

//===----------------------------------------------------------------------===//
// The key routine: one rendering serves both visited keys.
//===----------------------------------------------------------------------===//

TEST(StateEngine, StateKeyMatchesRawPackedAndEscapedKeys) {
  Program P;
  buildCounter(P, /*Atomic=*/false, 2, 4);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine Raw(FP, {});
  const unsigned NW = Raw.schedWords();
  const size_t RawBytes = size_t{NW} * sizeof(int64_t);

  // Sound bounds for this program: x and each tmp stay within [0, 4].
  exec::ValueBounds Sound;
  Sound.GlobalSlots.assign(Raw.globalSlots(), {0, 4});
  exec::State Shape = Raw.initialState();
  Sound.Locals.resize(Raw.numContexts());
  for (unsigned Ctx = 0; Ctx < Raw.numContexts(); ++Ctx)
    Sound.Locals[Ctx].assign(Shape.numLocals(Ctx), {0, 4});
  exec::MachineTuning Tuning;
  Tuning.Bounds = &Sound;
  exec::Machine Packed(FP, {}, Tuning);
  ASSERT_TRUE(Packed.packedLayout().Enabled);
  const exec::PackedLayout &PL = Packed.packedLayout();

  exec::ValueBounds Lies = escapingBounds(Raw);
  Tuning.Bounds = &Lies;
  exec::Machine Escaping(FP, {}, Tuning);
  ASSERT_TRUE(Escaping.packedLayout().Enabled);

  std::vector<exec::State> States = randomWalkStates(Raw, 200, 0x5EEDull);
  std::map<std::vector<int64_t>, std::string> KeyOf;
  std::set<std::string> Keys;
  for (const exec::State &S : States) {
    const int64_t *W = S.words();
    std::string Tag = "state " + std::to_string(KeyOf.size());

    // A raw layout views the words themselves under the plain hash.
    exec::Machine::StateKey K = Raw.stateKey(W, &hashWords);
    EXPECT_EQ(K.Bytes.data(), reinterpret_cast<const char *>(W)) << Tag;
    EXPECT_EQ(K.Bytes.size(), RawBytes) << Tag;
    EXPECT_EQ(K.Fp, hashWords(W, NW)) << Tag;
    EXPECT_FALSE(K.Escaped) << Tag;

    // In range: KeyBytes packed bytes, hashed over KeyWords words.
    K = Packed.stateKey(W, &hashWords);
    ASSERT_FALSE(K.Escaped) << Tag;
    ASSERT_EQ(K.Bytes.size(), PL.KeyBytes) << Tag;
    std::vector<uint64_t> Words(PL.KeyWords, 0);
    std::memcpy(Words.data(), K.Bytes.data(), K.Bytes.size());
    EXPECT_EQ(K.Fp,
              hashWords(reinterpret_cast<const int64_t *>(Words.data()),
                        PL.KeyWords))
        << Tag;
    std::string Key(K.Bytes);
    EXPECT_EQ(Key, Packed.encodeWords(W)) << Tag;
    EXPECT_EQ(K.Fp, Packed.fingerprintWords(W)) << Tag;
    std::vector<int64_t> Sched(W, W + NW);
    auto [It, New] = KeyOf.emplace(Sched, Key);
    if (New)
      EXPECT_TRUE(Keys.insert(Key).second) << Tag << ": packed key collides";
    else
      EXPECT_EQ(It->second, Key) << Tag;

    // Escaped: the raw bytes plus the marker, under the salted hash.
    K = Escaping.stateKey(W, &hashWords);
    EXPECT_TRUE(K.Escaped) << Tag;
    ASSERT_EQ(K.Bytes.size(), RawBytes + 1) << Tag;
    EXPECT_EQ(std::memcmp(K.Bytes.data(), W, RawBytes), 0) << Tag;
    EXPECT_EQ(K.Bytes[RawBytes], '\x1b') << Tag;
    EXPECT_EQ(K.Fp, hashWords(W, NW) ^ 0x9e3779b97f4a7c15ull) << Tag;
    EXPECT_EQ(std::string(K.Bytes), Escaping.encodeWords(W)) << Tag;
  }
  EXPECT_GT(KeyOf.size(), 10u) << "the walk should reach distinct states";
  // Rendering a key is not entering a state: nothing was counted.
  EXPECT_EQ(Escaping.packEscapes(), 0u);
}

TEST(StateEngine, PackEscapesCountEachEnteredStateOnce) {
  // Every key escapes, so each state a check enters must add exactly
  // one escape, however many probes (cycle proviso, membership, insert)
  // the engine spends on it: PackEscapes == StatesExplored +
  // StatesDeduped, for the racy program (a violation, so the Local
  // re-derivation runs too) and the atomic one, in every W=1 engine.
  struct Engine {
    const char *Name;
    PorMode Por;
    SearchOrder Order;
    bool UndoLog;
  } Engines[] = {
      {"ample undo DFS", PorMode::Ample, SearchOrder::Dfs, true},
      {"ample copy DFS", PorMode::Ample, SearchOrder::Dfs, false},
      {"ample BFS", PorMode::Ample, SearchOrder::Bfs, true},
      {"local undo DFS", PorMode::Local, SearchOrder::Dfs, true},
      {"local copy DFS", PorMode::Local, SearchOrder::Dfs, false},
      {"local BFS", PorMode::Local, SearchOrder::Bfs, true},
  };
  for (bool Atomic : {true, false}) {
    Program P;
    buildCounter(P, Atomic, 2, 4);
    flat::FlatProgram FP = flat::flatten(P);
    exec::Machine Plain(FP, {});
    exec::ValueBounds Lies = escapingBounds(Plain);
    exec::MachineTuning Tuning;
    Tuning.Bounds = &Lies;
    for (const Engine &E : Engines) {
      exec::Machine M(FP, {}, Tuning);
      ASSERT_TRUE(M.packedLayout().Enabled);
      CheckerConfig Cfg;
      Cfg.NumThreads = 1;
      Cfg.UseRandomFalsifier = false;
      Cfg.Por = E.Por;
      Cfg.Order = E.Order;
      Cfg.UseUndoLog = E.UndoLog;
      CheckResult R = checkCandidate(M, Cfg);
      std::string Tag = std::string(E.Name) + (Atomic ? " atomic" : " racy");
      EXPECT_EQ(R.Ok, Atomic) << Tag;
      EXPECT_GT(R.StatesExplored, 0u) << Tag;
      EXPECT_EQ(R.PackEscapes, R.StatesExplored + R.StatesDeduped) << Tag;
    }
  }
}

//===----------------------------------------------------------------------===//
// Forced collisions: exact keys keep dedup exact under any hash.
//===----------------------------------------------------------------------===//

namespace {

/// A degenerate fingerprint: every state collides with every other.
uint64_t collideEverything(const int64_t *, size_t) { return 0x1234; }

/// 1500 distinct states of the one-increment counter program (x set to
/// 0..1499): behind one fingerprint, more keys than the 70% load factor
/// of a fresh table's 1024 slots admits, so the memcmp walk also runs
/// across grow().
std::vector<exec::State> collidingStates(const exec::Machine &M) {
  std::vector<exec::State> Out;
  for (int64_t X = 0; X < 1500; ++X) {
    exec::State S = M.initialState();
    S.setGlobal(0, X);
    Out.push_back(std::move(S));
  }
  return Out;
}

/// Inserts every state of \p States into \p T twice over: each first
/// insert must be fresh, each second one a revisit.
template <typename Table>
void expectExactDedup(Table &T, const exec::Machine &M,
                      const std::vector<exec::State> &States) {
  size_t Fresh = 0, Revisits = 0;
  for (const exec::State &S : States)
    Fresh += T.insert(M, S);
  for (const exec::State &S : States)
    Revisits += !T.insert(M, S);
  EXPECT_EQ(Fresh, States.size());
  EXPECT_EQ(Revisits, States.size());
}

} // namespace

TEST(StateEngine, ForcedCollisionExactTableDedups) {
  Program P;
  buildCounter(P, /*Atomic=*/true, 1, 2);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  std::vector<exec::State> States = collidingStates(M);
  ASSERT_NE(M.encodeState(States[0]), M.encodeState(States[1]));

  detail::VisitedTable T(&collideEverything);
  expectExactDedup(T, M, States);
}

TEST(StateEngine, ShardedTableForcedCollisionMatchesSequentialTable) {
  Program P;
  buildCounter(P, /*Atomic=*/true, 1, 2);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  std::vector<exec::State> States = collidingStates(M);

  // Every state lands in one shard, whose cell sees all the collisions.
  detail::ShardedVisited T(&collideEverything);
  expectExactDedup(T, M, States);

  // Interleaved first visits and revisits: both tables decide alike.
  detail::ShardedVisited Sharded(&collideEverything);
  detail::VisitedTable Seq(&collideEverything);
  size_t Disagree = 0;
  for (size_t I = 0; I < States.size(); ++I)
    for (size_t J : {I, I / 2})
      Disagree += Sharded.insert(M, States[J]) != Seq.insert(M, States[J]);
  EXPECT_EQ(Disagree, 0u);
}
