//===- analysis/Lockset.cpp - Eraser-style lockset inference --------------===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//

#include "analysis/Lockset.h"

#include "analysis/Util.h"
#include "ir/StaticEval.h"

#include <algorithm>
#include <map>
#include <set>

using namespace psketch;
using namespace psketch::analysis;
using namespace psketch::ir;
using namespace psketch::flat;

namespace {

//===----------------------------------------------------------------------===//
// Slot mapping (mirrors exec::Machine's flattened-global layout).
//===----------------------------------------------------------------------===//

struct SlotMap {
  std::vector<unsigned> Offsets; ///< global id -> first slot
  unsigned NumSlots = 0;

  explicit SlotMap(const Program &P) {
    Offsets.reserve(P.globals().size());
    for (const Global &G : P.globals()) {
      Offsets.push_back(NumSlots);
      NumSlots += G.ArraySize == 0 ? 1 : G.ArraySize;
    }
  }

  /// Reverse lookup: "owner" or "forks[2]".
  std::string name(const Program &P, unsigned Slot) const {
    for (size_t I = 0; I < Offsets.size(); ++I) {
      const Global &G = P.globals()[I];
      unsigned Extent = G.ArraySize == 0 ? 1 : G.ArraySize;
      if (Slot >= Offsets[I] && Slot < Offsets[I] + Extent)
        return G.ArraySize == 0
                   ? G.Name
                   : G.Name + "[" + std::to_string(Slot - Offsets[I]) + "]";
    }
    return "slot " + std::to_string(Slot);
  }
};

/// Evaluates \p E to a compile-time constant. Candidate mode resolves
/// holes through the assignment; whole-space mode only accepts hole-free
/// expressions (a hole-dependent lock value must refuse the cell).
std::optional<int64_t> staticValue(const Program &P, ExprRef E,
                                   const HoleAssignment *Holes) {
  if (!E)
    return std::nullopt;
  if (Holes)
    return tryEvalStatic(P, E, *Holes);
  std::set<unsigned> Mentioned;
  collectHoles(E, Mentioned);
  if (!Mentioned.empty())
    return std::nullopt;
  HoleAssignment None(P.holes().size(), 0);
  return tryEvalStatic(P, E, None);
}

/// Step liveness under the (possibly absent) candidate.
enum class Live : uint8_t { Dead, Certain, Maybe };

Live stepLive(const Program &P, const Step &S, const HoleAssignment *Holes) {
  if (!S.StaticGuard)
    return Live::Certain;
  if (auto V = staticValue(P, S.StaticGuard, Holes))
    return *V != 0 ? Live::Certain : Live::Dead;
  return Live::Maybe;
}

/// A write target, resolved as far as statically possible.
struct Target {
  enum class Kind : uint8_t { None, Exact, WholeArray } K = Kind::None;
  unsigned Slot = 0;     ///< Exact
  unsigned GlobalId = 0; ///< WholeArray
};

Target resolveTarget(const Program &P, const SlotMap &SM, const Loc &L,
                     const HoleAssignment *Holes) {
  switch (L.LocKind) {
  case Loc::Kind::Local:
  case Loc::Kind::Field:
    return {};
  case Loc::Kind::Global:
    return {Target::Kind::Exact, SM.Offsets[L.Id], L.Id};
  case Loc::Kind::GlobalArray: {
    const Global &G = P.globals()[L.Id];
    auto Index = staticValue(P, L.Index, Holes);
    if (Index && *Index >= 0 && *Index < static_cast<int64_t>(G.ArraySize))
      return {Target::Kind::Exact,
              SM.Offsets[L.Id] + static_cast<unsigned>(*Index), L.Id};
    return {Target::Kind::WholeArray, 0, L.Id};
  }
  }
  return {};
}

/// Adds every global slot \p E may read to \p Out (unresolved array
/// indices widen to the whole array). Choice nodes resolve through the
/// candidate when possible, else union all alternatives.
void collectReadSlots(const Program &P, const SlotMap &SM, ExprRef E,
                      const HoleAssignment *Holes, std::set<unsigned> &Out) {
  if (!E)
    return;
  switch (E->Kind) {
  case ExprKind::GlobalRead:
    Out.insert(SM.Offsets[E->Id]);
    return;
  case ExprKind::GlobalArrayRead: {
    collectReadSlots(P, SM, E->Ops[0], Holes, Out);
    const Global &G = P.globals()[E->Id];
    auto Index = staticValue(P, E->Ops[0], Holes);
    if (Index && *Index >= 0 && *Index < static_cast<int64_t>(G.ArraySize)) {
      Out.insert(SM.Offsets[E->Id] + static_cast<unsigned>(*Index));
    } else {
      for (unsigned I = 0; I < G.ArraySize; ++I)
        Out.insert(SM.Offsets[E->Id] + I);
    }
    return;
  }
  case ExprKind::Choice:
    if (Holes && E->Id < Holes->size() && (*Holes)[E->Id] < E->Ops.size()) {
      collectReadSlots(P, SM, E->Ops[(*Holes)[E->Id]], Holes, Out);
      return;
    }
    break; // whole-space: fall through to all alternatives
  default:
    break;
  }
  for (ExprRef Op : E->Ops)
    collectReadSlots(P, SM, Op, Holes, Out);
}

/// The wait-condition side of an acquire: Eq(cell, free) in either
/// operand order, cell a statically-resolved global slot, free a static
/// constant.
struct WaitMatch {
  unsigned Slot = 0;
  int64_t Free = 0;
};

std::optional<unsigned> cellSlot(const Program &P, const SlotMap &SM,
                                 ExprRef E, const HoleAssignment *Holes) {
  if (E->Kind == ExprKind::GlobalRead && P.globals()[E->Id].ArraySize == 0)
    return SM.Offsets[E->Id];
  if (E->Kind == ExprKind::GlobalArrayRead) {
    const Global &G = P.globals()[E->Id];
    auto Index = staticValue(P, E->Ops[0], Holes);
    if (Index && *Index >= 0 && *Index < static_cast<int64_t>(G.ArraySize))
      return SM.Offsets[E->Id] + static_cast<unsigned>(*Index);
  }
  return std::nullopt;
}

std::optional<WaitMatch> matchWait(const Program &P, const SlotMap &SM,
                                   ExprRef Wait, const HoleAssignment *Holes) {
  if (!Wait || Wait->Kind != ExprKind::Eq)
    return std::nullopt;
  for (unsigned Side = 0; Side < 2; ++Side) {
    auto Slot = cellSlot(P, SM, Wait->Ops[Side], Holes);
    auto Free = staticValue(P, Wait->Ops[1 - Side], Holes);
    if (Slot && Free)
      return WaitMatch{*Slot, *Free};
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Access records.
//===----------------------------------------------------------------------===//

/// One write to a (potential lock) slot by a thread step.
struct WriteRec {
  unsigned Ctx = 0;
  unsigned Pc = 0;
  bool PredNull = false;            ///< op-level predicate absent
  bool IsAcquire = false;           ///< the write half of an acquire step
  std::optional<int64_t> Value;     ///< static value, if provable
};

/// Per-step acquire classification (at most one per step).
struct AcquireRec {
  unsigned Ctx = 0;
  unsigned Pc = 0;
  WaitMatch Wait;
  bool Unconditional = false; ///< certain static guard AND null DynGuard
};

} // namespace

LocksetResult analysis::runLockset(const Program &P, const FlatProgram &FP,
                                   const HoleAssignment *Holes) {
  LocksetResult Out;
  SlotMap SM(P);
  unsigned NumThreads = static_cast<unsigned>(FP.Threads.size());
  if (SM.NumSlots == 0 || NumThreads == 0)
    return Out;

  // Pass 1: collect, per slot, every thread write plus acquire matches,
  // and note slots clobbered by unresolvable writes (whole-array stores,
  // Alloc targets, multiple writes in one step).
  std::map<unsigned, std::vector<WriteRec>> Writes;
  std::map<unsigned, std::vector<AcquireRec>> Acquires;
  std::set<unsigned> Spoiled; // slot -> can never be a lock cell
  auto SpoilArray = [&](unsigned GlobalId) {
    const Global &G = P.globals()[GlobalId];
    unsigned Extent = G.ArraySize == 0 ? 1 : G.ArraySize;
    for (unsigned I = 0; I < Extent; ++I)
      Spoiled.insert(SM.Offsets[GlobalId] + I);
  };

  for (unsigned Ctx = 0; Ctx < NumThreads; ++Ctx) {
    const FlatBody &B = bodyOf(FP, Ctx);
    for (unsigned Pc = 0; Pc < B.Steps.size(); ++Pc) {
      const Step &S = B.Steps[Pc];
      Live L = stepLive(P, S, Holes);
      if (L == Live::Dead)
        continue;
      auto Wait = matchWait(P, SM, S.WaitCond, Holes);

      // Per-slot write counts within this step: a second write to the
      // same cell in one atomic step defeats the acquire/release shape.
      std::map<unsigned, unsigned> StepWrites;
      for (const MicroOp &Op : S.Ops) {
        if (Op.OpKind == MicroOp::Kind::Assert)
          continue;
        Target T = resolveTarget(P, SM, Op.Target, Holes);
        if (T.K == Target::Kind::None)
          continue;
        if (T.K == Target::Kind::WholeArray ||
            Op.OpKind == MicroOp::Kind::Alloc) {
          if (T.K == Target::Kind::WholeArray)
            SpoilArray(T.GlobalId);
          else
            Spoiled.insert(T.Slot);
          continue;
        }
        if (++StepWrites[T.Slot] > 1) {
          Spoiled.insert(T.Slot);
          continue;
        }
        WriteRec W;
        W.Ctx = Ctx;
        W.Pc = Pc;
        W.PredNull = Op.Pred == nullptr;
        W.Value = staticValue(P, Op.Value, Holes);
        W.IsAcquire = Wait && Wait->Slot == T.Slot && W.PredNull && W.Value &&
                      *W.Value != Wait->Free;
        if (W.IsAcquire) {
          AcquireRec A;
          A.Ctx = Ctx;
          A.Pc = Pc;
          A.Wait = *Wait;
          A.Unconditional = L == Live::Certain && S.DynGuard == nullptr;
          Acquires[T.Slot].push_back(A);
        }
        Writes[T.Slot].push_back(W);
      }
    }
  }

  // Prologue writes spoil a cell: the discipline requires the parallel
  // phase to start with the cell at its free value, which we prove by
  // "initializer equals free and nobody retouches it before the fork".
  std::set<unsigned> PrologueWritten;
  for (const Step &S : FP.Prologue.Steps) {
    if (stepLive(P, S, Holes) == Live::Dead)
      continue;
    for (const MicroOp &Op : S.Ops) {
      if (Op.OpKind == MicroOp::Kind::Assert)
        continue;
      Target T = resolveTarget(P, SM, Op.Target, Holes);
      if (T.K == Target::Kind::Exact)
        PrologueWritten.insert(T.Slot);
      else if (T.K == Target::Kind::WholeArray) {
        const Global &G = P.globals()[T.GlobalId];
        for (unsigned I = 0; I < G.ArraySize; ++I)
          PrologueWritten.insert(SM.Offsets[T.GlobalId] + I);
      }
    }
  }

  // Pass 2: qualify cells.
  struct Cell {
    unsigned Slot;
    int64_t Free;
    /// Per thread, Held-at-entry for pcs 0..Steps (computed below).
    std::vector<std::vector<uint8_t>> Held;
  };
  std::vector<Cell> Cells;
  auto Refuse = [&](unsigned Slot, const char *Why, unsigned Ctx = 0,
                    unsigned Pc = 0) {
    Out.Refusals.push_back({Slot, Why, Ctx, Pc});
  };

  for (auto &[Slot, As] : Acquires) {
    if (Spoiled.count(Slot)) {
      Refuse(Slot, "unresolvable or compound write");
      continue;
    }
    int64_t Free = As.front().Wait.Free;
    if (std::any_of(As.begin(), As.end(), [&](const AcquireRec &A) {
          return A.Wait.Free != Free;
        })) {
      Refuse(Slot, "acquire sites disagree on the free value");
      continue;
    }
    // Initial value: find the owning global's initializer.
    int64_t Init = 0;
    for (size_t I = 0; I < SM.Offsets.size(); ++I) {
      const Global &G = P.globals()[I];
      unsigned Extent = G.ArraySize == 0 ? 1 : G.ArraySize;
      if (Slot >= SM.Offsets[I] && Slot < SM.Offsets[I] + Extent)
        Init = G.Init;
    }
    if (Init != Free) {
      Refuse(Slot, "initializer differs from the free value");
      continue;
    }
    if (PrologueWritten.count(Slot)) {
      Refuse(Slot, "written by the prologue");
      continue;
    }
    // Every write must be the acquire half or a clean release.
    bool Ok = true;
    for (const WriteRec &W : Writes[Slot]) {
      if (W.IsAcquire)
        continue;
      if (W.PredNull && W.Value && *W.Value == Free)
        continue; // release form; must-held checked below
      Refuse(Slot, "non-conforming write", W.Ctx, W.Pc);
      Ok = false;
      break;
    }
    if (!Ok)
      continue;

    // Must-held forward scan per thread. An unconditional acquire sets
    // Held; a conditional one leaves it (a guard-true re-acquire blocks
    // forever, so pcs past it are only reachable via the guard-false
    // path); a release clears it. Entry masks are indexed 0..Steps.size()
    // inclusive so the end-of-body pc is total.
    Cell C;
    C.Slot = Slot;
    C.Free = Free;
    C.Held.resize(NumThreads);
    bool ReleasesOk = true;
    for (unsigned Ctx = 0; Ctx < NumThreads && ReleasesOk; ++Ctx) {
      const FlatBody &B = bodyOf(FP, Ctx);
      C.Held[Ctx].assign(B.Steps.size() + 1, 0);
      bool Held = false;
      for (unsigned Pc = 0; Pc < B.Steps.size(); ++Pc) {
        C.Held[Ctx][Pc] = Held ? 1 : 0;
        bool IsAcq = false, IsRel = false, AcqUncond = false;
        for (const WriteRec &W : Writes[Slot])
          if (W.Ctx == Ctx && W.Pc == Pc) {
            if (W.IsAcquire)
              IsAcq = true;
            else
              IsRel = true;
          }
        for (const AcquireRec &A : As)
          if (A.Ctx == Ctx && A.Pc == Pc)
            AcqUncond = A.Unconditional;
        if (IsRel) {
          // A release at a site that does not provably hold the lock
          // breaks the mutual-exclusion argument: refuse the cell.
          if (!Held) {
            Refuse(Slot, "release without provable ownership", Ctx, Pc);
            ReleasesOk = false;
            break;
          }
          Held = false;
        } else if (IsAcq && AcqUncond) {
          Held = true;
        }
      }
      if (ReleasesOk)
        C.Held[Ctx][B.Steps.size()] = Held ? 1 : 0;
    }
    if (!ReleasesOk)
      continue;
    Cells.push_back(std::move(C));
  }

  if (Cells.size() > exec::LockAnnotations::MaxLocks) {
    for (size_t I = exec::LockAnnotations::MaxLocks; I < Cells.size(); ++I)
      Refuse(Cells[I].Slot, "over the lock-cell cap");
    Cells.resize(exec::LockAnnotations::MaxLocks);
  }

  // Emit annotations.
  if (!Cells.empty()) {
    exec::LockAnnotations &LA = Out.Locks;
    for (const Cell &C : Cells) {
      LA.LockSlots.push_back(C.Slot);
      LA.FreeValues.push_back(C.Free);
    }
    LA.MustEntry.resize(NumThreads);
    for (unsigned Ctx = 0; Ctx < NumThreads; ++Ctx) {
      const FlatBody &B = bodyOf(FP, Ctx);
      LA.MustEntry[Ctx].assign(B.Steps.size() + 1, 0);
      for (unsigned Pc = 0; Pc <= B.Steps.size(); ++Pc)
        for (size_t L = 0; L < Cells.size(); ++L)
          if (Cells[L].Held[Ctx][Pc])
            LA.MustEntry[Ctx][Pc] |= 1u << L;
    }
  }

  // Pass 3: Eraser-style inconsistency lint over non-lock slots. A site's
  // lockset is the must-entry mask of its step; a slot is racy when two
  // threads touch it, somebody writes, somebody holds a lock, and the
  // intersection over all sites is empty.
  struct Access {
    unsigned Ctx, Pc;
    uint32_t Mask;
    bool Write;
  };
  std::map<unsigned, std::vector<Access>> Accesses;
  std::set<unsigned> LockSlots(Out.Locks.LockSlots.begin(),
                               Out.Locks.LockSlots.end());
  for (unsigned Ctx = 0; Ctx < NumThreads; ++Ctx) {
    const FlatBody &B = bodyOf(FP, Ctx);
    for (unsigned Pc = 0; Pc < B.Steps.size(); ++Pc) {
      const Step &S = B.Steps[Pc];
      if (stepLive(P, S, Holes) == Live::Dead)
        continue;
      uint32_t Mask =
          Out.Locks.empty() ? 0 : Out.Locks.MustEntry[Ctx][Pc];
      std::set<unsigned> Reads;
      collectReadSlots(P, SM, S.WaitCond, Holes, Reads);
      std::set<unsigned> WriteSlots;
      for (const MicroOp &Op : S.Ops) {
        collectReadSlots(P, SM, Op.Pred, Holes, Reads);
        collectReadSlots(P, SM, Op.Value, Holes, Reads);
        if (Op.OpKind == MicroOp::Kind::Assert)
          continue;
        collectReadSlots(P, SM, Op.Target.Index, Holes, Reads);
        Target T = resolveTarget(P, SM, Op.Target, Holes);
        if (T.K == Target::Kind::Exact)
          WriteSlots.insert(T.Slot);
        else if (T.K == Target::Kind::WholeArray) {
          const Global &G = P.globals()[T.GlobalId];
          for (unsigned I = 0; I < G.ArraySize; ++I)
            WriteSlots.insert(SM.Offsets[T.GlobalId] + I);
        }
      }
      for (unsigned Slot : WriteSlots)
        if (!LockSlots.count(Slot))
          Accesses[Slot].push_back({Ctx, Pc, Mask, true});
      for (unsigned Slot : Reads)
        if (!LockSlots.count(Slot) && !WriteSlots.count(Slot))
          Accesses[Slot].push_back({Ctx, Pc, Mask, false});
    }
  }
  for (auto &[Slot, Sites] : Accesses) {
    std::set<unsigned> Ctxs;
    uint32_t Common = ~0u, Any = 0;
    bool AnyWrite = false;
    for (const Access &A : Sites) {
      Ctxs.insert(A.Ctx);
      Common &= A.Mask;
      Any |= A.Mask;
      AnyWrite |= A.Write;
    }
    if (Ctxs.size() < 2 || !AnyWrite || Any == 0 || Common != 0)
      continue;
    const Access *Bad = &Sites.front();
    for (const Access &A : Sites)
      if (A.Mask == 0) {
        Bad = &A;
        break;
      }
    Out.Races.push_back({Slot, Bad->Ctx, Bad->Pc});
  }

  return Out;
}

std::string analysis::slotName(const Program &P, unsigned Slot) {
  return SlotMap(P).name(P, Slot);
}
