//===- frontend/Parser.cpp -------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "support/StrUtil.h"

#include <map>
#include <optional>

using namespace psketch;
using namespace psketch::frontend;
using namespace psketch::ir;

namespace {

/// What a name currently refers to.
struct Binding {
  enum class Kind : uint8_t { Global, Local, ForkConst } BKind;
  unsigned Id = 0;     ///< global id or local slot
  Type Ty = Type::Int; ///< for locals
  int64_t Value = 0;   ///< for fork constants
};

class Parser {
public:
  Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  ParseResult run();

private:
  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::string Error;
  std::unique_ptr<Program> P;

  std::string StructName = "Node";
  std::map<std::string, unsigned> Fields;
  std::map<std::string, Binding> Names; // globals + current body scope
  std::vector<std::string> BodyNames;   // names to drop when a body ends
  BodyId CurBody = BodyId::prologue();

  // Source-position-keyed hole sharing across fork copies.
  std::map<size_t, unsigned> HoleAt;
  std::map<size_t, std::vector<unsigned>> ReorderHolesAt;

  //===--------------------------------------------------------------------===//
  // Token plumbing.
  //===--------------------------------------------------------------------===//

  const Token &peek(size_t Ahead = 0) const {
    size_t I = std::min(Pos + Ahead, Tokens.size() - 1);
    return Tokens[I];
  }
  bool at(TokenKind Kind) const { return peek().Kind == Kind; }
  bool atIdent(const char *Text) const {
    return at(TokenKind::Ident) && peek().Text == Text;
  }
  Token take() { return Tokens[Pos == Tokens.size() - 1 ? Pos : Pos++]; }
  bool accept(TokenKind Kind) {
    if (!at(Kind))
      return false;
    take();
    return true;
  }
  bool acceptIdent(const char *Text) {
    if (!atIdent(Text))
      return false;
    take();
    return true;
  }
  bool expect(TokenKind Kind, const char *Context) {
    if (accept(Kind))
      return true;
    fail(format("expected %s in %s, found %s", tokenKindName(Kind), Context,
                tokenKindName(peek().Kind)));
    return false;
  }
  void fail(const std::string &Message) {
    if (Error.empty())
      Error = format("%u:%u: %s", peek().Line, peek().Column,
                     Message.c_str());
  }
  bool failed() const { return !Error.empty(); }

  //===--------------------------------------------------------------------===//
  // Scope helpers.
  //===--------------------------------------------------------------------===//

  void beginBody(BodyId Id) {
    CurBody = Id;
    BodyNames.clear();
  }
  void endBody() {
    for (const std::string &N : BodyNames)
      Names.erase(N);
    BodyNames.clear();
  }

  unsigned holeAt(size_t Key, const std::string &Name, unsigned Choices) {
    auto It = HoleAt.find(Key);
    if (It != HoleAt.end())
      return It->second;
    unsigned Id = P->addHole(Name, Choices);
    HoleAt.emplace(Key, Id);
    return Id;
  }

  //===--------------------------------------------------------------------===//
  // Grammar.
  //===--------------------------------------------------------------------===//

  std::optional<Type> parseType();
  void parseStruct();
  void parseGlobal();
  void parseThread(const std::string &Name, int64_t ForkValue,
                   const std::string &ForkVar);
  void parseTopLevel();

  StmtRef parseBlock();
  StmtRef parseStmt();
  StmtRef parseAssignment();
  std::vector<Loc> parseLvalOrGenerator();
  Loc parseLval();

  ExprRef parseExpr() { return parseOr(); }
  ExprRef parseOr();
  ExprRef parseAnd();
  ExprRef parseCompare();
  ExprRef parseAdd();
  ExprRef parseUnary();
  ExprRef parsePostfix(ExprRef Base);
  ExprRef parsePrimary();
};

std::optional<Type> Parser::parseType() {
  if (acceptIdent("int"))
    return Type::Int;
  if (acceptIdent("bool"))
    return Type::Bool;
  if (at(TokenKind::Ident) && peek().Text == StructName) {
    take();
    return Type::Ptr;
  }
  return std::nullopt;
}

void Parser::parseStruct() {
  if (!at(TokenKind::Ident)) {
    fail("expected struct name");
    return;
  }
  StructName = take().Text;
  expect(TokenKind::LBrace, "struct");
  while (!failed() && !accept(TokenKind::RBrace)) {
    auto Ty = parseType();
    if (!Ty) {
      fail("expected field type");
      return;
    }
    if (!at(TokenKind::Ident)) {
      fail("expected field name");
      return;
    }
    std::string Name = take().Text;
    expect(TokenKind::Semi, "field declaration");
    Fields[Name] = P->addField(Name, *Ty);
  }
}

void Parser::parseGlobal() {
  auto Ty = parseType();
  if (!Ty) {
    fail("expected global type");
    return;
  }
  if (!at(TokenKind::Ident)) {
    fail("expected global name");
    return;
  }
  std::string Name = take().Text;
  unsigned ArraySize = 0;
  if (accept(TokenKind::LBracket)) {
    if (!at(TokenKind::Number)) {
      fail("expected array size");
      return;
    }
    ArraySize = static_cast<unsigned>(take().Number);
    expect(TokenKind::RBracket, "array declaration");
  }
  int64_t Init = 0;
  if (accept(TokenKind::Assign)) {
    bool Negative = accept(TokenKind::Minus);
    if (!at(TokenKind::Number)) {
      fail("expected numeric initializer");
      return;
    }
    Init = take().Number * (Negative ? -1 : 1);
  }
  expect(TokenKind::Semi, "global declaration");
  unsigned Id = ArraySize == 0
                    ? P->addGlobal(Name, *Ty, Init)
                    : P->addGlobalArray(Name, *Ty, ArraySize, Init);
  Names[Name] = Binding{Binding::Kind::Global, Id, *Ty, 0};
}

ExprRef Parser::parseOr() {
  ExprRef E = parseAnd();
  while (!failed() && accept(TokenKind::OrOr))
    E = P->lor(E, parseAnd());
  return E;
}

ExprRef Parser::parseAnd() {
  ExprRef E = parseCompare();
  while (!failed() && accept(TokenKind::AndAnd))
    E = P->land(E, parseCompare());
  return E;
}

ExprRef Parser::parseCompare() {
  ExprRef E = parseAdd();
  if (failed())
    return E;
  if (accept(TokenKind::EqEq))
    return P->eq(E, parseAdd());
  if (accept(TokenKind::NotEq))
    return P->ne(E, parseAdd());
  if (accept(TokenKind::Less))
    return P->lt(E, parseAdd());
  if (accept(TokenKind::LessEq))
    return P->le(E, parseAdd());
  if (accept(TokenKind::Greater))
    return P->gt(E, parseAdd());
  if (accept(TokenKind::GreaterEq))
    return P->ge(E, parseAdd());
  return E;
}

ExprRef Parser::parseAdd() {
  ExprRef E = parseUnary();
  for (;;) {
    if (failed())
      return E;
    if (accept(TokenKind::Plus))
      E = P->add(E, parseUnary());
    else if (accept(TokenKind::Minus))
      E = P->sub(E, parseUnary());
    else
      return E;
  }
}

ExprRef Parser::parseUnary() {
  if (accept(TokenKind::Not))
    return P->lnot(parseUnary());
  if (accept(TokenKind::Minus))
    return P->sub(P->constInt(0), parseUnary());
  return parsePostfix(parsePrimary());
}

ExprRef Parser::parsePostfix(ExprRef Base) {
  while (!failed() && accept(TokenKind::Dot)) {
    if (!at(TokenKind::Ident)) {
      fail("expected field name after '.'");
      return Base;
    }
    std::string Name = take().Text;
    auto It = Fields.find(Name);
    if (It == Fields.end()) {
      fail("unknown field '" + Name + "'");
      return Base;
    }
    if (Base->Ty != Type::Ptr) {
      fail("field '" + Name + "' of a non-pointer value");
      return Base;
    }
    Base = P->field(Base, It->second);
  }
  return Base;
}

ExprRef Parser::parsePrimary() {
  if (failed())
    return P->constInt(0);
  if (at(TokenKind::Number))
    return P->constInt(take().Number);
  if (acceptIdent("null"))
    return P->null();
  if (acceptIdent("true"))
    return P->constBool(true);
  if (acceptIdent("false"))
    return P->constBool(false);
  if (at(TokenKind::Hole)) {
    size_t Key = Pos;
    take();
    unsigned Choices = 16;
    if (accept(TokenKind::LParen)) {
      if (!at(TokenKind::Number)) {
        fail("expected hole range");
        return P->constInt(0);
      }
      // A hole's value is a signed int of the program's width.
      int64_t Given = take().Number;
      int64_t Max = int64_t(1) << (P->intWidth() - 1);
      if (Given < 1 || Given > Max) {
        fail(format("hole range %lld is outside 1..%lld",
                    static_cast<long long>(Given),
                    static_cast<long long>(Max)));
        return P->constInt(0);
      }
      Choices = static_cast<unsigned>(Given);
      expect(TokenKind::RParen, "hole range");
    }
    unsigned Id = holeAt(Key, format("??@%zu", Key), Choices);
    return P->holeValue(Id);
  }
  if (at(TokenKind::GenOpen)) {
    size_t Key = Pos;
    take();
    std::vector<ExprRef> Alternatives;
    Alternatives.push_back(parseExpr());
    while (!failed() && accept(TokenKind::Pipe))
      Alternatives.push_back(parseExpr());
    expect(TokenKind::GenClose, "expression generator");
    if (failed() || Alternatives.size() == 1)
      return Alternatives[0];
    unsigned Id = holeAt(Key, format("gen@%zu", Key),
                         static_cast<unsigned>(Alternatives.size()));
    return P->choiceOf(Id, std::move(Alternatives));
  }
  if (accept(TokenKind::LParen)) {
    ExprRef E = parseExpr();
    expect(TokenKind::RParen, "parenthesized expression");
    return E;
  }
  if (at(TokenKind::Ident)) {
    std::string Name = take().Text;
    auto It = Names.find(Name);
    if (It == Names.end()) {
      fail("unknown name '" + Name + "'");
      return P->constInt(0);
    }
    const Binding &B = It->second;
    switch (B.BKind) {
    case Binding::Kind::ForkConst:
      return P->constInt(B.Value);
    case Binding::Kind::Local:
      return P->local(B.Id, B.Ty);
    case Binding::Kind::Global:
      if (P->globals()[B.Id].ArraySize > 0) {
        if (!expect(TokenKind::LBracket, "array access"))
          return P->constInt(0);
        ExprRef Index = parseExpr();
        expect(TokenKind::RBracket, "array access");
        return P->globalAt(B.Id, Index);
      }
      return P->global(B.Id);
    }
  }
  fail(format("unexpected %s in expression", tokenKindName(peek().Kind)));
  return P->constInt(0);
}

Loc Parser::parseLval() {
  if (!at(TokenKind::Ident)) {
    fail("expected assignable location");
    return Loc();
  }
  std::string Name = take().Text;
  auto It = Names.find(Name);
  if (It == Names.end()) {
    fail("unknown name '" + Name + "'");
    return Loc();
  }
  const Binding &B = It->second;
  Loc Base;
  ExprRef BaseExpr = nullptr;
  switch (B.BKind) {
  case Binding::Kind::ForkConst:
    fail("cannot assign to the fork index");
    return Loc();
  case Binding::Kind::Local:
    Base = P->locLocal(B.Id);
    BaseExpr = P->local(B.Id, B.Ty);
    break;
  case Binding::Kind::Global:
    if (P->globals()[B.Id].ArraySize > 0) {
      if (!expect(TokenKind::LBracket, "array store"))
        return Loc();
      ExprRef Index = parseExpr();
      expect(TokenKind::RBracket, "array store");
      return P->locGlobalAt(B.Id, Index);
    }
    Base = P->locGlobal(B.Id);
    BaseExpr = P->global(B.Id);
    break;
  }
  // Field chains: everything but the last field is a read.
  while (at(TokenKind::Dot)) {
    take();
    if (!at(TokenKind::Ident)) {
      fail("expected field name after '.'");
      return Loc();
    }
    std::string FieldName = take().Text;
    auto FIt = Fields.find(FieldName);
    if (FIt == Fields.end()) {
      fail("unknown field '" + FieldName + "'");
      return Loc();
    }
    if (BaseExpr->Ty != Type::Ptr) {
      fail("field '" + FieldName + "' of a non-pointer value");
      return Loc();
    }
    if (at(TokenKind::Dot)) {
      BaseExpr = P->field(BaseExpr, FIt->second);
      continue;
    }
    return P->locField(BaseExpr, FIt->second);
  }
  return Base;
}

std::vector<Loc> Parser::parseLvalOrGenerator() {
  std::vector<Loc> Targets;
  if (accept(TokenKind::GenOpen)) {
    Targets.push_back(parseLval());
    while (!failed() && accept(TokenKind::Pipe))
      Targets.push_back(parseLval());
    expect(TokenKind::GenClose, "location generator");
    return Targets;
  }
  Targets.push_back(parseLval());
  return Targets;
}

StmtRef Parser::parseAssignment() {
  size_t GenKey = Pos; // hole key for a possible l-value generator
  std::vector<Loc> Targets = parseLvalOrGenerator();
  if (failed())
    return P->nop();
  if (!expect(TokenKind::Assign, "assignment"))
    return P->nop();

  // new
  if (acceptIdent("new")) {
    expect(TokenKind::Semi, "allocation");
    if (Targets.size() != 1) {
      fail("'new' needs a single target");
      return P->nop();
    }
    return P->alloc(Targets[0]);
  }
  // AtomicSwap(loc, value)
  if (atIdent("AtomicSwap")) {
    take();
    expect(TokenKind::LParen, "AtomicSwap");
    size_t SwapKey = Pos;
    std::vector<Loc> SwapTargets = parseLvalOrGenerator();
    expect(TokenKind::Comma, "AtomicSwap");
    ExprRef Value = parseExpr();
    expect(TokenKind::RParen, "AtomicSwap");
    expect(TokenKind::Semi, "AtomicSwap");
    if (failed() || Targets.size() != 1) {
      fail("AtomicSwap needs a single result target");
      return P->nop();
    }
    if (SwapTargets.size() == 1)
      return P->swap("", Targets[0], std::move(SwapTargets), Value);
    unsigned Id = holeAt(SwapKey, format("swaploc@%zu", SwapKey),
                         static_cast<unsigned>(SwapTargets.size()));
    return P->swapOf(Id, Targets[0], std::move(SwapTargets), Value);
  }
  // Ordinary assignment.
  ExprRef Value = parseExpr();
  expect(TokenKind::Semi, "assignment");
  if (failed())
    return P->nop();
  if (Targets.size() == 1)
    return P->assign(Targets[0], Value);
  unsigned Id = holeAt(GenKey, format("lvgen@%zu", GenKey),
                       static_cast<unsigned>(Targets.size()));
  return P->choiceAssignOf(Id, std::move(Targets), Value);
}

StmtRef Parser::parseStmt() {
  if (failed())
    return P->nop();

  if (at(TokenKind::LBrace))
    return parseBlock();

  if (acceptIdent("var")) {
    auto Ty = parseType();
    if (!Ty) {
      fail("expected type after 'var'");
      return P->nop();
    }
    if (!at(TokenKind::Ident)) {
      fail("expected variable name");
      return P->nop();
    }
    std::string Name = take().Text;
    StmtRef Init = P->nop();
    unsigned Slot = P->addLocal(CurBody, Name, *Ty, 0);
    Names[Name] = Binding{Binding::Kind::Local, Slot, *Ty, 0};
    BodyNames.push_back(Name);
    if (accept(TokenKind::Assign)) {
      ExprRef Value = parseExpr();
      Init = P->assign(P->locLocal(Slot), Value);
    }
    expect(TokenKind::Semi, "variable declaration");
    return Init;
  }

  if (acceptIdent("if")) {
    expect(TokenKind::LParen, "if");
    ExprRef Cond = parseExpr();
    expect(TokenKind::RParen, "if");
    StmtRef Then = parseStmt();
    StmtRef Else = nullptr;
    if (acceptIdent("else"))
      Else = parseStmt();
    return P->ifS(Cond, Then, Else);
  }

  if (acceptIdent("while")) {
    expect(TokenKind::LParen, "while");
    ExprRef Cond = parseExpr();
    expect(TokenKind::RParen, "while");
    unsigned Bound = P->poolSize() + 2;
    if (acceptIdent("bound")) {
      if (!at(TokenKind::Number)) {
        fail("expected loop bound");
        return P->nop();
      }
      int64_t Given = take().Number;
      if (Given < 1 || Given > UINT16_MAX) {
        fail(format("loop bound %lld is outside 1..%u",
                    static_cast<long long>(Given), UINT16_MAX));
        return P->nop();
      }
      Bound = static_cast<unsigned>(Given);
    }
    StmtRef Body = parseStmt();
    return P->whileS(Cond, Body, Bound);
  }

  if (acceptIdent("atomic")) {
    ExprRef Cond = nullptr;
    if (accept(TokenKind::LParen)) {
      Cond = parseExpr();
      expect(TokenKind::RParen, "conditional atomic");
    }
    StmtRef Body = parseStmt();
    return Cond ? P->condAtomic(Cond, Body) : P->atomic(Body);
  }

  if (acceptIdent("wait")) {
    expect(TokenKind::LParen, "wait");
    ExprRef Cond = parseExpr();
    expect(TokenKind::RParen, "wait");
    expect(TokenKind::Semi, "wait");
    return P->condAtomic(Cond, P->nop());
  }

  if (acceptIdent("assert")) {
    ExprRef Cond = parseExpr();
    std::string Label = "assert";
    if (accept(TokenKind::Colon)) {
      if (!at(TokenKind::String)) {
        fail("expected assert label string");
        return P->nop();
      }
      Label = take().Text;
    }
    expect(TokenKind::Semi, "assert");
    return P->assertS(Cond, Label);
  }

  if (atIdent("reorder")) {
    size_t Key = Pos;
    take();
    ReorderEncoding Enc = ReorderEncoding::Quadratic;
    if (acceptIdent("exponential"))
      Enc = ReorderEncoding::Exponential;
    expect(TokenKind::LBrace, "reorder");
    std::vector<StmtRef> Stmts;
    while (!failed() && !accept(TokenKind::RBrace))
      Stmts.push_back(parseStmt());
    auto It = ReorderHolesAt.find(Key);
    if (It == ReorderHolesAt.end())
      It = ReorderHolesAt
               .emplace(Key, P->makeReorderHoles(
                                 format("reorder@%zu", Key),
                                 static_cast<unsigned>(Stmts.size()), Enc))
               .first;
    return P->reorderOf(It->second, std::move(Stmts), Enc);
  }

  return parseAssignment();
}

StmtRef Parser::parseBlock() {
  expect(TokenKind::LBrace, "block");
  std::vector<StmtRef> Stmts;
  while (!failed() && !accept(TokenKind::RBrace))
    Stmts.push_back(parseStmt());
  return P->seq(std::move(Stmts));
}

void Parser::parseThread(const std::string &Name, int64_t ForkValue,
                         const std::string &ForkVar) {
  unsigned Id = P->addThread(Name);
  beginBody(BodyId::thread(Id));
  if (!ForkVar.empty()) {
    Names[ForkVar] = Binding{Binding::Kind::ForkConst, 0, Type::Int,
                             ForkValue};
    BodyNames.push_back(ForkVar);
  }
  P->setRoot(BodyId::thread(Id), parseBlock());
  endBody();
}

void Parser::parseTopLevel() {
  if (acceptIdent("struct")) {
    parseStruct();
    return;
  }
  if (acceptIdent("global")) {
    parseGlobal();
    return;
  }
  if (acceptIdent("pool")) {
    if (!at(TokenKind::Number)) {
      fail("expected pool size");
      return;
    }
    P->setPoolSize(static_cast<unsigned>(take().Number));
    expect(TokenKind::Semi, "pool directive");
    return;
  }
  if (acceptIdent("prologue")) {
    beginBody(BodyId::prologue());
    P->setRoot(BodyId::prologue(), parseBlock());
    endBody();
    return;
  }
  if (acceptIdent("epilogue")) {
    beginBody(BodyId::epilogue());
    P->setRoot(BodyId::epilogue(), parseBlock());
    endBody();
    return;
  }
  if (acceptIdent("thread")) {
    if (!at(TokenKind::Ident)) {
      fail("expected thread name");
      return;
    }
    std::string Name = take().Text;
    parseThread(Name, 0, "");
    return;
  }
  if (acceptIdent("fork")) {
    expect(TokenKind::LParen, "fork");
    if (!at(TokenKind::Ident)) {
      fail("expected fork index variable");
      return;
    }
    std::string Var = take().Text;
    expect(TokenKind::Comma, "fork");
    if (!at(TokenKind::Number)) {
      fail("expected fork thread count");
      return;
    }
    int64_t Count = take().Number;
    expect(TokenKind::RParen, "fork");
    // Replay the same block once per thread; position-keyed holes make
    // the copies share one sketch.
    size_t BlockStart = Pos;
    for (int64_t I = 0; I < Count && !failed(); ++I) {
      Pos = BlockStart;
      parseThread(format("fork%lld", static_cast<long long>(I)), I, Var);
    }
    return;
  }
  fail(format("unexpected %s at top level", tokenKindName(peek().Kind)));
}

ParseResult Parser::run() {
  P = std::make_unique<Program>();
  while (!failed() && !at(TokenKind::End))
    parseTopLevel();
  ParseResult R;
  if (failed()) {
    R.Error = Error;
    return R;
  }
  R.Program = std::move(P);
  return R;
}

} // namespace

ParseResult psketch::frontend::parseProgram(const std::string &Source) {
  std::vector<Token> Tokens;
  std::string LexError;
  if (!tokenize(Source, Tokens, LexError)) {
    ParseResult R;
    R.Error = LexError;
    return R;
  }
  Parser Par(std::move(Tokens));
  return Par.run();
}
