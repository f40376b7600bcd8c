//===- tests/test_fuzz.cpp - token-mutation fuzzing of the frontend --------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
// Any input text must end in a result or a typed diagnostic, never a
// crash or a hang. This test mutates every sketch in examples/ and
// tests/fixtures/ at the token level (delete, duplicate or swap tokens,
// one to three edits per mutant) from a fixed seed, and drives each
// mutant as psketch_tool does: parse; validate what parses; flatten,
// lint() and analyze() what validates. A mutant that parses must carry
// no error text, and one that does not must carry some. The sanitizer
// presets run this file too, so an out-of-bounds read or an undefined
// shift in any of those layers fails there.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "desugar/Flatten.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace psketch;

namespace {

/// One token of a source text: its kind, and its text plus the
/// whitespace and comments up to the next token.
struct Chunk {
  frontend::TokenKind Kind;
  std::string Text;
};

/// Splits \p Source into one chunk per token. The first chunk also
/// carries any leading comments.
std::vector<Chunk> tokenChunks(const std::string &Source) {
  std::vector<frontend::Token> Tokens;
  std::string Error;
  if (!frontend::tokenize(Source, Tokens, Error))
    return {};
  std::vector<size_t> LineStart = {0};
  for (size_t I = 0; I < Source.size(); ++I)
    if (Source[I] == '\n')
      LineStart.push_back(I + 1);
  std::vector<Chunk> Chunks;
  std::vector<size_t> Starts;
  for (const frontend::Token &T : Tokens)
    if (T.Kind != frontend::TokenKind::End) {
      Chunks.push_back({T.Kind, ""});
      Starts.push_back(LineStart[T.Line - 1] + T.Column - 1);
    }
  for (size_t I = 0; I < Chunks.size(); ++I) {
    size_t From = I == 0 ? 0 : Starts[I];
    size_t To = I + 1 < Starts.size() ? Starts[I + 1] : Source.size();
    Chunks[I].Text = Source.substr(From, To - From);
  }
  return Chunks;
}

/// Applies one to three random token edits to \p Chunks and joins them,
/// with a space after each chunk so moved tokens never fuse. A swap
/// exchanges two tokens of the same kind (two names, two numbers, two
/// semicolons...), which keeps many mutants parseable, so they reach the
/// validator and the analyzer.
std::string mutate(std::vector<Chunk> Chunks, Rng &R) {
  unsigned Edits = 1 + static_cast<unsigned>(R.below(3));
  for (unsigned E = 0; E < Edits && !Chunks.empty(); ++E) {
    size_t I = R.below(Chunks.size());
    switch (R.below(3)) {
    case 0:
      Chunks.erase(Chunks.begin() + static_cast<std::ptrdiff_t>(I));
      break;
    case 1: {
      Chunk Copy = Chunks[I];
      Chunks.insert(Chunks.begin() + static_cast<std::ptrdiff_t>(I),
                    std::move(Copy));
      break;
    }
    default: {
      std::vector<size_t> Same;
      for (size_t J = 0; J < Chunks.size(); ++J)
        if (Chunks[J].Kind == Chunks[I].Kind)
          Same.push_back(J);
      std::swap(Chunks[I].Text, Chunks[Same[R.below(Same.size())]].Text);
      break;
    }
    }
  }
  std::string Out;
  for (const Chunk &C : Chunks)
    Out += C.Text + " ";
  return Out;
}

std::vector<std::filesystem::path> sketchFiles() {
  std::vector<std::filesystem::path> Files;
  const std::filesystem::path Test(PSKETCH_TEST_DIR);
  for (const std::filesystem::path &Dir :
       {Test.parent_path() / "examples", Test / "fixtures"})
    for (const auto &Entry : std::filesystem::directory_iterator(Dir))
      if (Entry.path().extension() == ".psk")
        Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// True if chunk \p C is the keyword \p Word.
bool isKeyword(const Chunk &C, const std::string &Word) {
  return C.Kind == frontend::TokenKind::Ident &&
         C.Text.compare(0, Word.size(), Word) == 0 &&
         (C.Text.size() == Word.size() ||
          !(std::isalnum(static_cast<unsigned char>(C.Text[Word.size()])) ||
            C.Text[Word.size()] == '_'));
}

/// The index of the '{' that opens the body of the `atomic` at \p I
/// (skipping a parenthesized wait condition), or 0 when the body is a
/// single statement.
size_t atomicBodyBrace(const std::vector<Chunk> &Chunks, size_t I) {
  size_t J = I + 1;
  if (J < Chunks.size() && Chunks[J].Kind == frontend::TokenKind::LParen) {
    for (unsigned Depth = 0; J < Chunks.size(); ++J) {
      Depth += Chunks[J].Kind == frontend::TokenKind::LParen;
      Depth -= Chunks[J].Kind == frontend::TokenKind::RParen;
      if (Depth == 0)
        break;
    }
    ++J;
  }
  return J < Chunks.size() && Chunks[J].Kind == frontend::TokenKind::LBrace
             ? J
             : 0;
}

} // namespace

TEST(ParserFuzz, LoopOrWaitInsideAtomicEndsInADiagnostic) {
  // Grammar-aware mutants: a bounded loop or a conditional atomic put at
  // the head of every atomic body of every sketch. Each one parses, and
  // validation must reject it with an error, before the flattener (which
  // cannot lower it) ever sees it.
  const char *Inserts[] = {"while (true) bound 2 { } ", "atomic (true) { } "};
  unsigned Mutants = 0;
  for (const std::filesystem::path &File : sketchFiles()) {
    std::ifstream In(File);
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    std::vector<Chunk> Chunks = tokenChunks(Buffer.str());
    for (size_t I = 0; I < Chunks.size(); ++I) {
      if (!isKeyword(Chunks[I], "atomic"))
        continue;
      size_t Brace = atomicBodyBrace(Chunks, I);
      if (Brace == 0)
        continue;
      for (const char *Insert : Inserts) {
        std::string Source;
        for (size_t J = 0; J < Chunks.size(); ++J) {
          Source += Chunks[J].Text + " ";
          if (J == Brace)
            Source += Insert;
        }
        SCOPED_TRACE(File.filename().string() + ":\n" + Source);
        frontend::ParseResult P = frontend::parseProgram(Source);
        ASSERT_TRUE(P.ok()) << P.Error;
        std::vector<analysis::Diagnostic> Diags =
            analysis::validateProgram(*P.Program);
        EXPECT_TRUE(std::any_of(
            Diags.begin(), Diags.end(), [](const analysis::Diagnostic &D) {
              return D.Sev == analysis::Severity::Error &&
                     D.Message.find("inside an atomic block") !=
                         std::string::npos;
            }));
        ++Mutants;
      }
    }
  }
  // barrier2, dining2 and sorted_list_race hold eight atomic bodies.
  EXPECT_GE(Mutants, 16u);
}

TEST(ParserFuzz, EveryMutantEndsInAResultOrADiagnostic) {
  constexpr unsigned MutantsPerFile = 1000;
  std::vector<std::filesystem::path> Files = sketchFiles();
  ASSERT_GE(Files.size(), 7u) << "examples/ or tests/fixtures/ not found";
  Rng R(0xF022ull);
  unsigned Parsed = 0, Valid = 0;
  for (const std::filesystem::path &File : Files) {
    std::ifstream In(File);
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    std::vector<Chunk> Chunks = tokenChunks(Buffer.str());
    ASSERT_FALSE(Chunks.empty()) << File;
    for (unsigned M = 0; M < MutantsPerFile; ++M) {
      std::string Source = mutate(Chunks, R);
      SCOPED_TRACE(File.filename().string() + " mutant " +
                   std::to_string(M) + ":\n" + Source);
      frontend::ParseResult P = frontend::parseProgram(Source);
      if (!P.ok()) {
        EXPECT_FALSE(P.Error.empty());
        continue;
      }
      EXPECT_TRUE(P.Error.empty());
      ++Parsed;
      if (!analysis::validateProgram(*P.Program).empty())
        continue;
      ++Valid;
      flat::FlatProgram FP = flat::flatten(*P.Program);
      analysis::lint(*P.Program, FP);
      analysis::analyze(*P.Program, FP);
    }
  }
  // The mutants must reach the analyzer, not only the parser's errors.
  EXPECT_GT(Valid, Files.size() * MutantsPerFile / 20)
      << Parsed << " mutants parsed, " << Valid << " validated";
}
