//===- benchmarks/LazySet.cpp ----------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/LazySet.h"

#include "support/StrUtil.h"

#include <cassert>

using namespace psketch;
using namespace psketch::bench;
using namespace psketch::ir;

namespace {

const int64_t HeadKey = -100;
const int64_t TailKey = 100;

class LazySetBuilder {
public:
  LazySetBuilder(Program &P, const Workload &W, const LazySetOptions &O)
      : P(P), W(W), O(O) {}

  void build();

private:
  Program &P;
  const Workload &W;
  const LazySetOptions &O;

  unsigned FKey = 0, FNext = 0, FOwner = 0, FMarked = 0;
  unsigned GHead = 0, GASucc = 0, GRSucc = 0, GInSet = 0;
  unsigned NumAdds = 0, NumRemoves = 0, MaxKey = 0;
  unsigned Site = 0;

  // remove() sketch holes: one lock, one unlock, a validation condition.
  unsigned HLockPos = 0, HLockTgt = 0;     // 4 positions x {pred, curr}
  unsigned HUnlockPos = 0, HUnlockTgt = 0; // 4 positions x {pred, curr}
  unsigned HValid = 0;                     // 8 validation forms
  // add() sketch holes (the "full" lazy set): two locks with positions,
  // targets, and a validation condition of their own.
  unsigned HAddAPos = 0, HAddATgt = 0;
  unsigned HAddBPos = 0, HAddBTgt = 0;
  unsigned HAddValid = 0;

  struct OpInfo {
    char Op;
    int64_t Key;
    unsigned Slot;
  };
  std::vector<std::vector<OpInfo>> ThreadPlans;
  std::vector<OpInfo> PrefixPlan, SuffixPlan;

  StmtRef lockNode(ExprRef Node, int64_t Pid) {
    return P.condAtomic(
        P.eq(P.field(Node, FOwner), P.constInt(0)),
        P.assign(P.locField(Node, FOwner), P.constInt(Pid)));
  }
  StmtRef unlockNode(ExprRef Node, int64_t Pid) {
    return P.atomic(
        P.seq({P.assertS(P.eq(P.field(Node, FOwner), P.constInt(Pid)),
                         "unlock of a lock we do not hold"),
               P.assign(P.locField(Node, FOwner), P.constInt(0))}));
  }

  /// The optimistic traversal shared by add() and remove().
  StmtRef traversal([[maybe_unused]] BodyId B, ExprRef Key, unsigned LPred, unsigned LCurr) {
    ExprRef Curr = P.local(LCurr, Type::Ptr);
    ExprRef Head = P.global(GHead);
    return P.seq(
        {P.assign(P.locLocal(LPred), Head),
         P.assign(P.locLocal(LCurr), P.field(Head, FNext)),
         P.whileS(P.lt(P.field(Curr, FKey), Key),
                  P.seq({P.assign(P.locLocal(LPred), Curr),
                         P.assign(P.locLocal(LCurr), P.field(Curr, FNext))}),
                  P.poolSize() + 1)});
  }

  StmtRef makeAdd(BodyId B, const OpInfo &Op, int64_t Pid);
  StmtRef makeRemove(BodyId B, const OpInfo &Op, int64_t Pid);
  StmtRef makeChecks();
  void plan();
};

void LazySetBuilder::plan() {
  unsigned ASlot = 0, RSlot = 0;
  auto PlanOp = [&](char Op, int64_t Key, std::vector<OpInfo> &Out) {
    assert((Op == 'a' || Op == 'r') && "set workloads use a/r ops");
    unsigned Slot = Op == 'a' ? ASlot++ : RSlot++;
    Out.push_back(OpInfo{Op, Key, Slot});
    MaxKey = std::max<unsigned>(MaxKey, static_cast<unsigned>(Key));
  };
  for (char Op : W.PrefixOps)
    PlanOp(Op, 1, PrefixPlan);
  // Threads work on the adjacent keys 2 and 3, alternating per op, so
  // concurrent removes can target adjacent nodes — the window where a
  // single-lock remove loses the race (a marked node stays reachable).
  ThreadPlans.resize(W.numThreads());
  for (unsigned T = 0; T < W.numThreads(); ++T)
    for (size_t J = 0; J < W.ThreadOps[T].size(); ++J)
      PlanOp(W.ThreadOps[T][J],
             2 + static_cast<int64_t>((T + J) % 2), ThreadPlans[T]);
  for (char Op : W.SuffixOps)
    PlanOp(Op, 1, SuffixPlan);
  NumAdds = ASlot;
  NumRemoves = RSlot;
  GASucc = P.addGlobalArray("asucc", Type::Int, std::max(NumAdds, 1u), 0);
  GRSucc = P.addGlobalArray("rsucc", Type::Int, std::max(NumRemoves, 1u), 0);
  GInSet = P.addGlobalArray("inset", Type::Int, MaxKey + 1, 0);
  P.setPoolSize(2 + NumAdds);
}

StmtRef LazySetBuilder::makeAdd(BodyId B, const OpInfo &Op, int64_t Pid) {
  unsigned Id = Site++;
  unsigned LPred = P.addLocal(B, format("apred%u", Id), Type::Ptr, 0);
  unsigned LCurr = P.addLocal(B, format("acurr%u", Id), Type::Ptr, 0);
  unsigned LNew = P.addLocal(B, format("anew%u", Id), Type::Ptr, 0);
  unsigned LValid = P.addLocal(B, format("avalid%u", Id), Type::Bool, 0);
  ExprRef Pred = P.local(LPred, Type::Ptr);
  ExprRef Curr = P.local(LCurr, Type::Ptr);
  ExprRef NewN = P.local(LNew, Type::Ptr);
  ExprRef Valid = P.local(LValid, Type::Bool);
  ExprRef Key = P.constInt(Op.Key);

  ExprRef PredOk = P.eq(P.field(Pred, FMarked), P.constInt(0));
  ExprRef CurrOk = P.eq(P.field(Curr, FMarked), P.constInt(0));
  ExprRef Linked = P.eq(P.field(Pred, FNext), Curr);
  ExprRef FullValid = P.land(PredOk, P.land(CurrOk, Linked));

  StmtRef Insert = P.ifS(
      P.land(Valid, P.ne(P.field(Curr, FKey), Key)),
      P.seq({P.alloc(P.locLocal(LNew)),
             P.assign(P.locField(NewN, FKey), Key),
             P.assign(P.locField(NewN, FNext), Curr),
             P.assign(P.locField(Pred, FNext), NewN),
             P.assign(P.locGlobalAt(GASucc, P.constInt(Op.Slot)),
                      P.constInt(1))}));

  if (!O.SketchAdd) {
    // The standard two-lock lazy add: optimistic find, lock both hands,
    // validate, insert. A failed validation makes the op a no-op
    // (bounded model: no retry loop).
    return P.seq({
        traversal(B, Key, LPred, LCurr),
        lockNode(Pred, Pid),
        lockNode(Curr, Pid),
        P.assign(P.locLocal(LValid), FullValid),
        Insert,
        unlockNode(Curr, Pid),
        unlockNode(Pred, Pid),
    });
  }

  // The "full" lazy set: add()'s two locks are placed by the
  // synthesizer, on synthesizer-chosen nodes, with a synthesized
  // validation condition. Both locks are released at the end through the
  // same target choices, so a candidate always unlocks what it locked.
  ExprRef AddValid = P.choiceOf(
      HAddValid,
      {Linked, P.land(Linked, CurrOk), P.land(Linked, PredOk), FullValid,
       CurrOk, PredOk, P.constBool(true), P.land(PredOk, CurrOk)});
  StmtRef Body[2] = {P.assign(P.locLocal(LValid), AddValid), Insert};

  std::vector<StmtRef> Stmts = {traversal(B, Key, LPred, LCurr)};
  for (unsigned Pos = 0; Pos < 3; ++Pos) {
    ExprRef AHere =
        P.eq(P.holeValue(HAddAPos), P.constInt(static_cast<int64_t>(Pos)));
    Stmts.push_back(
        P.ifS(AHere, lockNode(P.choiceOf(HAddATgt, {Pred, Curr}), Pid)));
    ExprRef BHere =
        P.eq(P.holeValue(HAddBPos), P.constInt(static_cast<int64_t>(Pos)));
    Stmts.push_back(
        P.ifS(BHere, lockNode(P.choiceOf(HAddBTgt, {Pred, Curr}), Pid)));
    if (Pos < 2)
      Stmts.push_back(Body[Pos]);
  }
  Stmts.push_back(unlockNode(P.choiceOf(HAddBTgt, {Pred, Curr}), Pid));
  Stmts.push_back(unlockNode(P.choiceOf(HAddATgt, {Pred, Curr}), Pid));
  return P.seq(std::move(Stmts));
}

StmtRef LazySetBuilder::makeRemove(BodyId B, const OpInfo &Op, int64_t Pid) {
  unsigned Id = Site++;
  unsigned LPred = P.addLocal(B, format("rpred%u", Id), Type::Ptr, 0);
  unsigned LCurr = P.addLocal(B, format("rcurr%u", Id), Type::Ptr, 0);
  unsigned LValid = P.addLocal(B, format("rvalid%u", Id), Type::Bool, 0);
  ExprRef Pred = P.local(LPred, Type::Ptr);
  ExprRef Curr = P.local(LCurr, Type::Ptr);
  ExprRef Valid = P.local(LValid, Type::Bool);
  ExprRef Key = P.constInt(Op.Key);

  ExprRef PredOk = P.eq(P.field(Pred, FMarked), P.constInt(0));
  ExprRef CurrOk = P.eq(P.field(Curr, FMarked), P.constInt(0));
  ExprRef Linked = P.eq(P.field(Pred, FNext), Curr);
  ExprRef ValidChoice = P.choiceOf(
      HValid,
      {Linked, P.land(Linked, CurrOk), P.land(Linked, PredOk),
       P.land(Linked, P.land(PredOk, CurrOk)), CurrOk, PredOk,
       P.constBool(true), P.land(PredOk, CurrOk)});

  // The stripped remove body, with one lock and one unlock inserted at
  // synthesizer-chosen positions on synthesizer-chosen nodes.
  StmtRef Body[3] = {
      P.assign(P.locLocal(LValid), ValidChoice),
      P.ifS(P.land(Valid, P.eq(P.field(Curr, FKey), Key)),
            P.assign(P.locField(Curr, FMarked), P.constInt(1))),
      P.ifS(P.land(Valid, P.eq(P.field(Curr, FKey), Key)),
            P.seq({P.assign(P.locField(Pred, FNext), P.field(Curr, FNext)),
                   P.assign(P.locGlobalAt(GRSucc, P.constInt(Op.Slot)),
                            P.constInt(1))})),
  };

  std::vector<StmtRef> Stmts = {traversal(B, Key, LPred, LCurr)};
  for (unsigned Pos = 0; Pos < 4; ++Pos) {
    ExprRef LockHere =
        P.eq(P.holeValue(HLockPos), P.constInt(static_cast<int64_t>(Pos)));
    ExprRef Target = P.choiceOf(HLockTgt, {Pred, Curr});
    Stmts.push_back(P.ifS(LockHere, lockNode(Target, Pid)));
    ExprRef UnlockHere =
        P.eq(P.holeValue(HUnlockPos), P.constInt(static_cast<int64_t>(Pos)));
    ExprRef UTarget = P.choiceOf(HUnlockTgt, {Pred, Curr});
    Stmts.push_back(P.ifS(UnlockHere, unlockNode(UTarget, Pid)));
    if (Pos < 3)
      Stmts.push_back(Body[Pos]);
  }
  return P.seq(std::move(Stmts));
}

StmtRef LazySetBuilder::makeChecks() {
  BodyId E = BodyId::epilogue();
  unsigned LP = P.addLocal(E, "walk", Type::Ptr, 0);
  ExprRef Walk = P.local(LP, Type::Ptr);
  ExprRef Head = P.global(GHead);

  std::vector<StmtRef> Checks = {
      P.assertS(P.ne(Head, P.null()), "head non-null"),
      P.assign(P.locLocal(LP), Head),
  };
  StmtRef WalkBody = P.seq({
      P.assertS(P.eq(P.field(Walk, FOwner), P.constInt(0)),
                "all locks released"),
      // At quiescence every logically deleted node must be unlinked:
      // a reachable marked node is a lost removal.
      P.assertS(P.eq(P.field(Walk, FMarked), P.constInt(0)),
                "no marked node remains reachable"),
      P.ifS(P.ne(P.field(Walk, FNext), P.null()),
            P.assertS(P.lt(P.field(Walk, FKey),
                           P.field(P.field(Walk, FNext), FKey)),
                      "strictly sorted"),
            P.assertS(P.eq(P.field(Walk, FKey), P.constInt(TailKey)),
                      "last node is the tail sentinel")),
      // Only unmarked nodes are set members.
      P.ifS(P.land(P.eq(P.field(Walk, FMarked), P.constInt(0)),
                   P.land(P.le(P.constInt(1), P.field(Walk, FKey)),
                          P.le(P.field(Walk, FKey),
                               P.constInt(static_cast<int64_t>(MaxKey))))),
            P.assign(P.locGlobalAt(GInSet, P.field(Walk, FKey)),
                     P.add(P.globalAt(GInSet, P.field(Walk, FKey)),
                           P.constInt(1)))),
      P.assign(P.locLocal(LP), P.field(Walk, FNext)),
  });
  Checks.push_back(
      P.whileS(P.ne(Walk, P.null()), WalkBody, P.poolSize() + 1));

  for (unsigned K = 1; K <= MaxKey; ++K) {
    ExprRef Net = P.constInt(0);
    auto Accumulate = [&](const std::vector<OpInfo> &Plan) {
      for (const OpInfo &Op : Plan) {
        if (static_cast<unsigned>(Op.Key) != K)
          continue;
        ExprRef Succ = Op.Op == 'a'
                           ? P.globalAt(GASucc, P.constInt(Op.Slot))
                           : P.globalAt(GRSucc, P.constInt(Op.Slot));
        Net = Op.Op == 'a' ? P.add(Net, Succ) : P.sub(Net, Succ);
      }
    };
    Accumulate(PrefixPlan);
    for (const auto &Plan : ThreadPlans)
      Accumulate(Plan);
    Accumulate(SuffixPlan);
    Checks.push_back(
        P.assertS(P.eq(Net, P.globalAt(GInSet, P.constInt(K))),
                  format("conservation of key %u", K)));
  }
  return P.seq(std::move(Checks));
}

void LazySetBuilder::build() {
  FKey = P.addField("key", Type::Int);
  FNext = P.addField("next", Type::Ptr);
  FOwner = P.addField("owner", Type::Int);
  FMarked = P.addField("marked", Type::Int);
  GHead = P.addGlobal("head", Type::Ptr, 0);
  plan();

  HLockPos = P.addHole("rem.lockPos", 4);
  HLockTgt = P.addHole("rem.lockTgt", 2);
  HUnlockPos = P.addHole("rem.unlockPos", 4);
  HUnlockTgt = P.addHole("rem.unlockTgt", 2);
  HValid = P.addHole("rem.valid", 8);
  if (O.SketchAdd) {
    HAddAPos = P.addHole("add.lockAPos", 3);
    HAddATgt = P.addHole("add.lockATgt", 2);
    HAddBPos = P.addHole("add.lockBPos", 3);
    HAddBTgt = P.addHole("add.lockBTgt", 2);
    HAddValid = P.addHole("add.valid", 8);
  }

  BodyId Pro = BodyId::prologue();
  unsigned LHead = P.addLocal(Pro, "h", Type::Ptr, 0);
  unsigned LTail = P.addLocal(Pro, "t", Type::Ptr, 0);
  ExprRef H = P.local(LHead, Type::Ptr);
  ExprRef T = P.local(LTail, Type::Ptr);
  std::vector<StmtRef> ProStmts = {
      P.alloc(P.locLocal(LHead)),
      P.assign(P.locField(H, FKey), P.constInt(HeadKey)),
      P.alloc(P.locLocal(LTail)),
      P.assign(P.locField(T, FKey), P.constInt(TailKey)),
      P.assign(P.locField(H, FNext), T),
      P.assign(P.locGlobal(GHead), H),
  };
  for (const OpInfo &Op : PrefixPlan)
    ProStmts.push_back(Op.Op == 'a' ? makeAdd(Pro, Op, 100)
                                    : makeRemove(Pro, Op, 100));
  P.setRoot(Pro, P.seq(std::move(ProStmts)));

  for (unsigned T2 = 0; T2 < W.numThreads(); ++T2) {
    unsigned Id = P.addThread(format("ops%u", T2));
    std::vector<StmtRef> Stmts;
    for (const OpInfo &Op : ThreadPlans[T2])
      Stmts.push_back(Op.Op == 'a'
                          ? makeAdd(BodyId::thread(Id), Op,
                                    static_cast<int64_t>(T2) + 1)
                          : makeRemove(BodyId::thread(Id), Op,
                                       static_cast<int64_t>(T2) + 1));
    P.setRoot(BodyId::thread(Id), P.seq(std::move(Stmts)));
  }

  BodyId Epi = BodyId::epilogue();
  std::vector<StmtRef> EpiStmts;
  for (const OpInfo &Op : SuffixPlan)
    EpiStmts.push_back(Op.Op == 'a' ? makeAdd(Epi, Op, 101)
                                    : makeRemove(Epi, Op, 101));
  EpiStmts.push_back(makeChecks());
  P.setRoot(Epi, P.seq(std::move(EpiStmts)));
}

} // namespace

std::unique_ptr<Program>
psketch::bench::buildLazySet(const Workload &W, const LazySetOptions &O) {
  auto P = std::make_unique<Program>(/*IntWidth=*/8, /*PoolSize=*/7);
  LazySetBuilder B(*P, W, O);
  B.build();
  return P;
}

static unsigned holeIdx(const Program &P, const std::string &Name) {
  for (size_t I = 0; I < P.holes().size(); ++I)
    if (P.holes()[I].Name == Name)
      return static_cast<unsigned>(I);
  assert(false && "hole not found");
  return 0;
}

HoleAssignment psketch::bench::lazySetReferenceCandidate(const Program &P) {
  HoleAssignment H(P.holes().size(), 0);
  H[holeIdx(P, "rem.lockPos")] = 0;   // before the validation
  H[holeIdx(P, "rem.lockTgt")] = 1;   // curr
  H[holeIdx(P, "rem.unlockPos")] = 3; // after the unlink
  H[holeIdx(P, "rem.unlockTgt")] = 1; // curr
  H[holeIdx(P, "rem.valid")] = 0;     // pred.next == curr
  return H;
}
