//===- examples/quickstart.cpp - the public API in five minutes ------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Three small end-to-end runs:
//  1. a sequential `implements`-style sketch resolved by input-driven
//     CEGIS (Section 5's original SKETCH algorithm);
//  2. a concurrent sketch — two racing increments with a synthesized
//     locking decision — resolved by trace-driven CEGIS (Section 6);
//  3. the same sketch written in the textual mini-PSketch language.
//
//===----------------------------------------------------------------------===//

#include "cegis/Cegis.h"
#include "frontend/Parser.h"

#include <cstdio>

using namespace psketch;
using namespace psketch::ir;

/// Sequential sketch: out = (in + ??) wrapped at 8 bits must implement
/// the reference out = in + 42 on every test input.
static bool sequentialQuickstart() {
  std::printf("== 1. Sequential CEGIS (observations are inputs) ==\n");
  Program P;
  unsigned In = P.addGlobal("in", Type::Int, 0);
  unsigned Out = P.addGlobal("out", Type::Int, 0);
  unsigned Expected = P.addGlobal("expected", Type::Int, 0);
  unsigned H = P.addHole("offset", 128);
  unsigned T = P.addThread("f");
  P.setRoot(BodyId::thread(T),
            P.assign(P.locGlobal(Out), P.add(P.global(In), P.holeValue(H))));
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(Out), P.global(Expected)),
                      "matches the reference"));

  // The reference implementation supplies the expected outputs.
  std::vector<synth::GlobalOverrides> Tests;
  for (int64_t X = -50; X <= 50; X += 7)
    Tests.push_back({{In, X}, {Expected, P.wrap(X + 42, Type::Int)}});

  cegis::SequentialCegis C(P, Tests);
  cegis::CegisResult R = C.run();
  std::printf("resolvable=%s after %u iterations; offset = %llu\n\n",
              R.Stats.Resolvable ? "yes" : "no", R.Stats.Iterations,
              R.Stats.Resolvable
                  ? static_cast<unsigned long long>(R.Candidate[H])
                  : 0ull);
  return R.Stats.Resolvable;
}

/// Concurrent sketch: should the increment take the lock? The model
/// checker rejects the lock-free candidate with a counterexample trace;
/// one observation later the synthesizer proposes the locked variant.
static bool concurrentQuickstart() {
  std::printf("== 2. Concurrent CEGIS (observations are traces) ==\n");
  Program P;
  unsigned X = P.addGlobal("x", Type::Int, 0);
  unsigned LK = P.addGlobal("lk", Type::Int, -1);
  unsigned H = P.addHole("useLock", 2);
  for (int T = 0; T < 2; ++T) {
    unsigned Id = P.addThread("incrementer");
    BodyId B = BodyId::thread(Id);
    unsigned Tmp = P.addLocal(B, "tmp", Type::Int, 0);
    ExprRef Pid = P.constInt(T);
    ExprRef UseLock = P.eq(P.holeValue(H), P.constInt(1));
    P.setRoot(
        B, P.seq({P.ifS(UseLock, P.lock(P.locGlobal(LK), P.global(LK), Pid)),
                  P.assign(P.locLocal(Tmp), P.global(X)),
                  P.assign(P.locGlobal(X),
                           P.add(P.local(Tmp, Type::Int), P.constInt(1))),
                  P.ifS(UseLock, P.unlock(P.locGlobal(LK), P.global(LK),
                                          Pid, "lock owner"))}));
  }
  P.setRoot(BodyId::epilogue(),
            P.assertS(P.eq(P.global(X), P.constInt(2)), "no lost update"));

  cegis::CegisConfig Cfg;
  Cfg.Log = [](const std::string &Message) {
    std::printf("  %s\n", Message.c_str());
  };
  cegis::ConcurrentCegis C(P, Cfg);
  cegis::CegisResult R = C.run();
  std::printf("resolvable=%s after %u iterations; useLock = %llu\n",
              R.Stats.Resolvable ? "yes" : "no", R.Stats.Iterations,
              R.Stats.Resolvable
                  ? static_cast<unsigned long long>(R.Candidate[H])
                  : 0ull);
  std::printf("resolved program:\n%s\n", C.printResolved(R).c_str());
  return R.Stats.Resolvable;
}

/// The same concurrent sketch through the textual frontend.
static bool frontendQuickstart() {
  std::printf("== 3. The textual mini-PSketch language ==\n");
  const char *Source = R"(
    global int x = 0;
    fork (i, 2) {
      var int tmp;
      // The synthesizer picks one of the two orderings; only
      // "read then write atomically" can keep the final assertion.
      atomic { tmp = x; x = tmp + {| 1 | 2 |}; }
    }
    epilogue { assert x == 2 : "both increments visible"; }
  )";
  frontend::ParseResult Parsed = frontend::parseProgram(Source);
  if (!Parsed.ok()) {
    std::printf("parse error: %s\n", Parsed.Error.c_str());
    return false;
  }
  cegis::ConcurrentCegis C(*Parsed.Program);
  cegis::CegisResult R = C.run();
  std::printf("resolvable=%s after %u iterations\n",
              R.Stats.Resolvable ? "yes" : "no", R.Stats.Iterations);
  if (R.Stats.Resolvable)
    std::printf("resolved program:\n%s", C.printResolved(R).c_str());
  return R.Stats.Resolvable;
}

/// Exits 1 unless all three sketches resolve.
int main() {
  bool Ok = sequentialQuickstart();
  Ok = concurrentQuickstart() && Ok;
  Ok = frontendQuickstart() && Ok;
  return Ok ? 0 : 1;
}
