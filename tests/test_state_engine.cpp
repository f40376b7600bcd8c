//===- tests/test_state_engine.cpp - state engine tests --------------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// The state-engine guarantees under test:
//  * Machine::stateKey renders raw, packed and escaped keys exactly as
//    encodeWords / fingerprintWords do, and the checker counts one
//    escape per entered state, in every engine;
//  * randomized step/undo sequences restore states bit-for-bit;
//  * under a hash where every state collides, or only the slot tags, or
//    only the shard bits, the sequential and the sharded visited tables
//    still admit each distinct state once and dedup every revisit,
//    across table growth;
//  * sleep masks wider than one byte (ten threads) wake and shrink
//    exactly in both tables.
// Engine agreement (undo-log DFS vs BFS, reductions, worker counts) is
// tests/test_oracle.cpp's.
//
//===----------------------------------------------------------------------===//

#include "TestSupport.h"

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
using psketch::test::buildCounter;

namespace {

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
  // one escape, however many probes the engine spends on it:
  // PackEscapes == StatesExplored + StatesDeduped, for the racy program
  // (a violation, so the Local re-derivation runs too) and the atomic
  // one, in every W=1 engine.
  struct Engine {
    const char *Name;
    PorMode Por;
    SearchOrder Order;
  } Engines[] = {
      {"ample DFS", PorMode::Ample, SearchOrder::Dfs},
      {"ample BFS", PorMode::Ample, SearchOrder::Bfs},
      {"local DFS", PorMode::Local, SearchOrder::Dfs},
      {"local BFS", PorMode::Local, SearchOrder::Bfs},
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

//===----------------------------------------------------------------------===//
// Slot tags, shards and sleep-mask widths of the visited cells.
//===----------------------------------------------------------------------===//

namespace {

/// Equal high 32 bits (the slot tag, hence the home slot) for every
/// state and distinct low bits: every probe walks tag hits that only
/// memcmp tells apart, while the sharded table spreads the states.
uint64_t collideTag(const int64_t *W, size_t N) {
  return uint64_t{0x5eed} << 32 | (hashWords(W, N) & 0xffffffffu);
}

/// Equal low 6 bits (the shard) for every state and distinct tags.
uint64_t collideShard(const int64_t *W, size_t N) {
  return hashWords(W, N) & ~uint64_t{63};
}

/// Offers every state of \p States to \p T once per round, with sleep
/// masks over machine threads 1, 8 and 9: the stored mask must keep the
/// bits of its second byte across grow() and shrink one wake at a time.
template <typename Table>
void expectWideMaskProtocol(Table &T, const exec::Machine &M,
                            const std::vector<exec::State> &States) {
  constexpr uint64_t B1 = 1u << 1, B8 = 1u << 8, B9 = 1u << 9;
  struct Offer {
    uint64_t Sleep;
    detail::InsertOutcome Want;
    uint64_t WantWake;
  };
  using detail::InsertOutcome;
  const Offer Rounds[] = {
      {B1 | B8 | B9, InsertOutcome::Fresh, 0},
      {B1 | B8, InsertOutcome::Wake, B9},
      {B1, InsertOutcome::Wake, B8},
      {B1 | B8 | B9, InsertOutcome::Prune, 0},
      {0, InsertOutcome::Wake, B1},
      {0, InsertOutcome::Prune, 0},
  };
  for (const Offer &O : Rounds) {
    size_t Wrong = 0;
    for (const exec::State &S : States) {
      uint64_t Wake = 0;
      Wrong += T.insertMask(M, S, O.Sleep, Wake) != O.Want ||
               Wake != O.WantWake;
    }
    EXPECT_EQ(Wrong, 0u) << "sleep mask " << O.Sleep;
  }
}

} // namespace

TEST(StateEngine, PartialCollisionsDedupExactlyInBothTables) {
  Program P;
  buildCounter(P, /*Atomic=*/true, 1, 2);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  std::vector<exec::State> States = collidingStates(M);

  for (detail::StateHashFn Hash : {&collideTag, &collideShard}) {
    detail::VisitedTable Seq(Hash);
    expectExactDedup(Seq, M, States);
    detail::ShardedVisited Sharded(Hash);
    expectExactDedup(Sharded, M, States);
  }
}

TEST(StateEngine, WideSleepMasksWakeAndShrinkInBothTables) {
  Program P;
  buildCounter(P, /*Atomic=*/true, 1, 10, /*Threads=*/10);
  flat::FlatProgram FP = flat::flatten(P);
  exec::Machine M(FP, {});
  ASSERT_EQ(detail::maskBytesOf(M), 2u);
  std::vector<exec::State> States = collidingStates(M);

  for (detail::StateHashFn Hash :
       {&hashWords, &collideTag, &collideShard, &collideEverything}) {
    detail::VisitedTable Seq(Hash);
    expectWideMaskProtocol(Seq, M, States);
    detail::ShardedVisited Sharded(Hash);
    expectWideMaskProtocol(Sharded, M, States);
  }
}
