//===- tests/test_frontend.cpp - mini-PSketch frontend tests ---------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "cegis/Cegis.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

using namespace psketch;
using namespace psketch::frontend;
using namespace psketch::ir;

TEST(Lexer, BasicTokens) {
  std::vector<Token> Tokens;
  std::string Error;
  ASSERT_TRUE(tokenize("x = y.next + 3;", Tokens, Error)) << Error;
  ASSERT_EQ(Tokens.size(), 9u); // incl. End
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Ident);
  EXPECT_EQ(Tokens[0].Text, "x");
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Assign);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Dot);
  EXPECT_EQ(Tokens[5].Kind, TokenKind::Plus);
  EXPECT_EQ(Tokens[6].Number, 3);
}

TEST(Lexer, SynthesisTokens) {
  std::vector<Token> Tokens;
  std::string Error;
  ASSERT_TRUE(tokenize("{| a | b |} ?? || |", Tokens, Error)) << Error;
  EXPECT_EQ(Tokens[0].Kind, TokenKind::GenOpen);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Pipe);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::GenClose);
  EXPECT_EQ(Tokens[5].Kind, TokenKind::Hole);
  EXPECT_EQ(Tokens[6].Kind, TokenKind::OrOr);
  EXPECT_EQ(Tokens[7].Kind, TokenKind::Pipe);
}

TEST(Lexer, CommentsAndStrings) {
  std::vector<Token> Tokens;
  std::string Error;
  ASSERT_TRUE(tokenize("// a comment\nassert x : \"label text\";", Tokens,
                       Error));
  EXPECT_EQ(Tokens[0].Text, "assert");
  EXPECT_EQ(Tokens[3].Kind, TokenKind::String);
  EXPECT_EQ(Tokens[3].Text, "label text");
}

TEST(Lexer, TracksLines) {
  std::vector<Token> Tokens;
  std::string Error;
  ASSERT_TRUE(tokenize("a\nb", Tokens, Error));
  EXPECT_EQ(Tokens[0].Line, 1u);
  EXPECT_EQ(Tokens[1].Line, 2u);
}

TEST(Lexer, RejectsBadCharacter) {
  std::vector<Token> Tokens;
  std::string Error;
  EXPECT_FALSE(tokenize("x = @;", Tokens, Error));
  EXPECT_NE(Error.find("unexpected character"), std::string::npos);
}

TEST(Parser, GlobalsAndThreads) {
  ParseResult R = parseProgram(R"(
    global int x = 3;
    global int arr[4];
    thread writer { x = 7; }
    epilogue { assert x == 7 : "written"; }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Program->globals().size(), 2u);
  EXPECT_EQ(R.Program->globals()[0].Init, 3);
  EXPECT_EQ(R.Program->numThreads(), 1u);
}

TEST(Parser, StructAndPointers) {
  ParseResult R = parseProgram(R"(
    pool 3;
    struct Node { Node next; int value; }
    global Node head;
    prologue {
      var Node n;
      n = new;
      n.value = 5;
      head = n;
    }
    epilogue { assert head.value == 5 : "stored"; }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Program->fields().size(), 2u);
  EXPECT_EQ(R.Program->poolSize(), 3u);
}

TEST(Parser, ParsedProgramVerifies) {
  ParseResult R = parseProgram(R"(
    global int x = 0;
    global int lk = -1;
    fork (i, 2) {
      var int tmp;
      atomic { tmp = x; x = tmp + 1; }
    }
    epilogue { assert x == 2 : "both increments"; }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  cegis::ConcurrentCegis C(*R.Program);
  auto Result = C.run();
  EXPECT_TRUE(Result.Stats.Resolvable); // no holes: candidate == program
  EXPECT_EQ(Result.Stats.Iterations, 1u);
}

TEST(Parser, ForkSharesHoles) {
  ParseResult R = parseProgram(R"(
    global int x = 0;
    fork (i, 3) { x = ??(8); }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Program->numThreads(), 3u);
  EXPECT_EQ(R.Program->holes().size(), 1u) << "one hole for all copies";
}

TEST(Parser, ForkIndexIsPerCopyConstant) {
  ParseResult R = parseProgram(R"(
    global int marks[3];
    fork (i, 3) { marks[i] = 1; }
    epilogue {
      assert marks[0] == 1 : "t0";
      assert marks[1] == 1 : "t1";
      assert marks[2] == 1 : "t2";
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  cegis::ConcurrentCegis C(*R.Program);
  EXPECT_TRUE(C.run().Stats.Resolvable);
}

TEST(Parser, HoleSynthesisEndToEnd) {
  ParseResult R = parseProgram(R"(
    global int x = 0;
    thread t { x = ??(16); }
    epilogue { assert x == 9 : "target"; }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  cegis::ConcurrentCegis C(*R.Program);
  auto Result = C.run();
  ASSERT_TRUE(Result.Stats.Resolvable);
  EXPECT_EQ(Result.Candidate[0], 9u);
}

TEST(Parser, GeneratorExpression) {
  ParseResult R = parseProgram(R"(
    global int x = 0;
    global int y = 5;
    thread t { x = {| 1 | y | y + 1 |}; }
    epilogue { assert x == 6 : "y+1 wins"; }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Program->holes().size(), 1u);
  EXPECT_EQ(R.Program->holes()[0].NumChoices, 3u);
  cegis::ConcurrentCegis C(*R.Program);
  auto Result = C.run();
  ASSERT_TRUE(Result.Stats.Resolvable);
  EXPECT_EQ(Result.Candidate[0], 2u);
}

TEST(Parser, ReorderStatement) {
  ParseResult R = parseProgram(R"(
    global int a = 0;
    global int b = 0;
    thread t {
      reorder {
        b = a;
        a = 1;
      }
    }
    epilogue { assert b == 1 : "a=1 must run first"; }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  cegis::ConcurrentCegis C(*R.Program);
  EXPECT_TRUE(C.run().Stats.Resolvable);
}

TEST(Parser, AtomicSwapStatement) {
  ParseResult R = parseProgram(R"(
    global int x = 4;
    thread t {
      var int old;
      old = AtomicSwap(x, 9);
      assert old == 4 : "swap returns the old value";
    }
    epilogue { assert x == 9 : "swap stored"; }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  cegis::ConcurrentCegis C(*R.Program);
  EXPECT_TRUE(C.run().Stats.Resolvable);
}

TEST(Parser, WaitAndConditionalAtomic) {
  ParseResult R = parseProgram(R"(
    global int x = 0;
    thread setter { x = 1; }
    thread waiter {
      wait (x == 1);
      atomic (x == 1) { x = 2; }
    }
    epilogue { assert x == 2 : "woke and wrote"; }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  cegis::ConcurrentCegis C(*R.Program);
  EXPECT_TRUE(C.run().Stats.Resolvable);
}

TEST(Parser, WhileWithBound) {
  ParseResult R = parseProgram(R"(
    global int x = 0;
    thread t {
      while (x < 3) bound 5 { x = x + 1; }
    }
    epilogue { assert x == 3 : "loop ran"; }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  cegis::ConcurrentCegis C(*R.Program);
  EXPECT_TRUE(C.run().Stats.Resolvable);
}

TEST(Parser, LvalueGenerator) {
  ParseResult R = parseProgram(R"(
    global int x = 0;
    global int y = 0;
    thread t { {| x | y |} = 5; }
    epilogue { assert y == 5 : "y selected"; }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  cegis::ConcurrentCegis C(*R.Program);
  auto Result = C.run();
  ASSERT_TRUE(Result.Stats.Resolvable);
  EXPECT_EQ(Result.Candidate[0], 1u);
}

TEST(Parser, DiagnosticsName) {
  ParseResult R = parseProgram("thread t { bogus = 1; }");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unknown name 'bogus'"), std::string::npos);
}

TEST(Parser, DiagnosticsSyntax) {
  ParseResult R = parseProgram("global int x");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("expected ';'"), std::string::npos);
}

TEST(Parser, DiagnosticsUnknownField) {
  ParseResult R = parseProgram(R"(
    struct Node { int v; }
    global Node n;
    thread t { n.w = 1; }
  )");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unknown field"), std::string::npos);
}

TEST(Parser, DiagnosticsForInputTheIRBuilderRejects) {
  // Input the IR builder would assert on must end in a parse error.
  const std::pair<const char *, const char *> Cases[] = {
      {"struct Node { int v; } global int x; thread t { x.v = 1; }",
       "field 'v' of a non-pointer value"},
      {"struct Node { int v; } global int x; global int y; "
       "thread t { y = x.v; }",
       "field 'v' of a non-pointer value"},
      {"global int x; thread t { while (x == 0) bound 0 x = 1; }",
       "loop bound 0 is outside 1..65535"},
      {"global int x; thread t { x = ?\?(0); }",
       "hole range 0 is outside 1..128"},
      {"global int x; thread t { x = ?\?(129); }",
       "hole range 129 is outside 1..128"},
  };
  for (const auto &[Source, Want] : Cases) {
    ParseResult R = parseProgram(Source);
    ASSERT_FALSE(R.ok()) << Source;
    EXPECT_NE(R.Error.find(Want), std::string::npos) << R.Error;
  }
}

TEST(Parser, DiningPolicySketchResolves) {
  // The examples/dining2.psk sketch, embedded: only the asymmetric
  // policies avoid deadlock.
  ParseResult R = parseProgram(R"(
    global int sticks[2];
    global int eats[2];
    fork (p, 2) {
      var int t;
      while (t < 2) bound 2 {
        if ({| p == 0 | p == 1 | true | false |}) {
          atomic (sticks[p] == 0) { sticks[p] = p + 1; }
          atomic (sticks[1 - p] == 0) { sticks[1 - p] = p + 1; }
        } else {
          atomic (sticks[1 - p] == 0) { sticks[1 - p] = p + 1; }
          atomic (sticks[p] == 0) { sticks[p] = p + 1; }
        }
        eats[p] = eats[p] + 1;
        atomic { assert sticks[p] == p + 1 : "left"; sticks[p] = 0; }
        atomic { assert sticks[1 - p] == p + 1 : "right"; sticks[1 - p] = 0; }
        t = t + 1;
      }
    }
    epilogue {
      assert eats[0] == 2 : "p0 ate";
      assert eats[1] == 2 : "p1 ate";
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Program->holes().size(), 1u) << "holes shared across copies";
  cegis::ConcurrentCegis C(*R.Program);
  auto Result = C.run();
  ASSERT_TRUE(Result.Stats.Resolvable);
  EXPECT_LE(Result.Candidate[0], 1u) << "an asymmetric policy was chosen";
}

TEST(Parser, BarrierSketchResolves) {
  // The examples/barrier2.psk sketch, embedded: the reset guard must be
  // cv == 1 and the reorder must restore count before flipping sense.
  ParseResult R = parseProgram(R"(
    global bool sense;
    global int count = 2;
    global bool senses[2];
    global int reached[4];
    fork (i, 2) {
      var int b;
      var bool s;
      var int cv;
      while (b < 2) bound 2 {
        reached[i + i + b] = 1;
        s = !senses[i];
        senses[i] = s;
        atomic { cv = count; count = count - 1; }
        if ({| cv == 1 | cv == 0 | true |}) {
          reorder {
            count = 2;
            sense = s;
          }
        } else {
          wait (sense == s);
        }
        assert reached[(1 - i) + (1 - i) + b] == 1 : "neighbour";
        b = b + 1;
      }
    }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  cegis::ConcurrentCegis C(*R.Program);
  auto Result = C.run();
  ASSERT_TRUE(Result.Stats.Resolvable);
  EXPECT_EQ(Result.Candidate[0], 0u) << "reset when cv == 1";
}

TEST(Parser, WhileBodySharesHolesAcrossIterations) {
  // Loop unrolling replicates the same statement tree, so a hole inside
  // a loop body is one unknown, not one per iteration.
  ParseResult R = parseProgram(R"(
    global int x = 0;
    thread t {
      var int i;
      while (i < 3) bound 3 {
        x = x + ??(4);
        i = i + 1;
      }
    }
    epilogue { assert x == 6 : "3 * 2"; }
  )");
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Program->holes().size(), 1u);
  cegis::ConcurrentCegis C(*R.Program);
  auto Result = C.run();
  ASSERT_TRUE(Result.Stats.Resolvable);
  EXPECT_EQ(Result.Candidate[0], 2u);
}
