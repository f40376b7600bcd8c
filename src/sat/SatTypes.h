//===- sat/SatTypes.h - Literals, variables, truth values -------*- C++ -*-===//
//
// Part of psketch-cpp, a reproduction of "Sketching Concurrent Data
// Structures" (PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The basic vocabulary of the SAT solver: variables, literals, the
/// three-valued truth type, and the flat clause arena. Follows the MiniSat
/// conventions (a literal is 2*var + sign, so both polarities of a
/// variable index adjacent slots).
///
//===----------------------------------------------------------------------===//

#ifndef PSKETCH_SAT_SATTYPES_H
#define PSKETCH_SAT_SATTYPES_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace psketch {
namespace sat {

/// A propositional variable; variables are dense non-negative integers.
using Var = int32_t;

/// The invalid variable sentinel.
const Var VarUndef = -1;

/// A literal: a variable together with a polarity.
class Lit {
public:
  Lit() : Code(-2) {}

  /// Builds the literal for \p V, negated if \p Negated.
  Lit(Var V, bool Negated) : Code(V * 2 + static_cast<int32_t>(Negated)) {
    assert(V >= 0 && "literal of invalid variable");
  }

  /// \returns the underlying variable.
  Var var() const { return Code >> 1; }

  /// \returns true if this is the negative-polarity literal.
  bool sign() const { return (Code & 1) != 0; }

  /// \returns the opposite-polarity literal of the same variable.
  Lit operator~() const { return fromCode(Code ^ 1); }

  /// \returns a dense non-negative index usable for watch lists.
  int32_t index() const { return Code; }

  /// Rebuilds a literal from its dense index.
  static Lit fromCode(int32_t Code) {
    Lit L;
    L.Code = Code;
    return L;
  }

  bool operator==(const Lit &Other) const { return Code == Other.Code; }
  bool operator!=(const Lit &Other) const { return Code != Other.Code; }
  bool operator<(const Lit &Other) const { return Code < Other.Code; }

private:
  int32_t Code;
};

/// The undefined literal sentinel.
inline Lit litUndef() { return Lit(); }

/// Three-valued truth: used both for assignments and models.
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

/// \returns the LBool encoding of the concrete boolean \p B.
inline LBool boolToLBool(bool B) { return B ? LBool::True : LBool::False; }

/// \returns \p Value flipped when \p Negate is set; Undef stays Undef.
inline LBool xorLBool(LBool Value, bool Negate) {
  if (Value == LBool::Undef)
    return LBool::Undef;
  return boolToLBool((Value == LBool::True) != Negate);
}

/// A reference to a clause in a ClauseArena: the index of its header word.
using CRef = uint32_t;

/// The "no clause" sentinel (a decision or root fact has no reason).
constexpr CRef CRefUndef = UINT32_MAX;

/// A view of one clause stored in a ClauseArena. It holds a pointer into
/// the arena, so it is only valid until the next ClauseArena::alloc or
/// relocation; the solver keeps CRefs and makes views on demand.
///
/// Layout (docs/SOLVER.md §7): one header word — size in the low 29 bits,
/// then the learnt, dead and relocated flags — followed by the literal
/// codes inline. A learnt clause is additionally preceded by three words:
/// its LBD and its activity (a double split over two words).
class Clause {
public:
  uint32_t size() const { return H[0] & SizeMask; }
  bool learnt() const { return (H[0] & LearntBit) != 0; }

  Lit operator[](uint32_t I) const {
    return Lit::fromCode(static_cast<int32_t>(H[1 + I]));
  }
  void set(uint32_t I, Lit L) { H[1 + I] = static_cast<uint32_t>(L.index()); }
  void swap(uint32_t I, uint32_t J) { std::swap(H[1 + I], H[1 + J]); }

  /// Learnt-clause metadata; undefined on problem clauses.
  uint32_t lbd() const { return H[-3]; }
  void setLbd(uint32_t LBD) { H[-3] = LBD; }
  double activity() const {
    double A;
    std::memcpy(&A, H - 2, sizeof A);
    return A;
  }
  void setActivity(double A) { std::memcpy(H - 2, &A, sizeof A); }

private:
  friend class ClauseArena;
  static constexpr uint32_t SizeMask = (1u << 29) - 1;
  static constexpr uint32_t LearntBit = 1u << 29;
  static constexpr uint32_t DeadBit = 1u << 30;
  static constexpr uint32_t RelocedBit = 1u << 31;
  /// Words in front of the header of a learnt clause.
  static constexpr uint32_t LearntExtra = 3;

  explicit Clause(uint32_t *Header) : H(Header) {}
  uint32_t *H;
};

/// The clause store: every clause lives in one flat word vector and is
/// addressed by a CRef. Allocation appends; freeing only marks the clause
/// dead and counts its words as wasted, which a relocation into a fresh
/// arena (driven by the solver, which knows every CRef holder) reclaims.
class ClauseArena {
public:
  /// Appends a clause of \p Size literals copied from \p Lits.
  CRef alloc(const Lit *Lits, uint32_t Size, bool Learnt) {
    assert(Size <= Clause::SizeMask && "clause too long for the arena");
    // Zero-filled, so a learnt clause starts at LBD 0 and activity 0.0.
    size_t Base = Words.size() + (Learnt ? Clause::LearntExtra : 0);
    // The solver's watchers keep a CRef in 31 bits.
    assert(Base + Size < (size_t(1) << 31) && "clause arena exhausted");
    Words.resize(Base + 1 + Size);
    Words[Base] = Size | (Learnt ? Clause::LearntBit : 0);
    for (uint32_t I = 0; I < Size; ++I)
      Words[Base + 1 + I] = static_cast<uint32_t>(Lits[I].index());
    return static_cast<CRef>(Base);
  }

  Clause operator[](CRef R) { return Clause(&Words[R]); }
  const Clause operator[](CRef R) const {
    return Clause(const_cast<uint32_t *>(&Words[R]));
  }

  bool dead(CRef R) const { return (Words[R] & Clause::DeadBit) != 0; }

  /// Marks \p R dead; its words count as wasted until the next relocation.
  void free(CRef R) {
    Clause C = (*this)[R];
    Wasted += C.size() + 1 + (C.learnt() ? Clause::LearntExtra : 0);
    Words[R] |= Clause::DeadBit;
  }

  /// Drops the literals past \p NewSize in place (their words are wasted).
  void shrink(CRef R, uint32_t NewSize) {
    uint32_t Old = Words[R] & Clause::SizeMask;
    assert(NewSize <= Old && "shrink cannot grow a clause");
    Wasted += Old - NewSize;
    Words[R] = (Words[R] & ~Clause::SizeMask) | NewSize;
  }

  /// Words in use, live and wasted.
  size_t size() const { return Words.size(); }
  size_t wasted() const { return Wasted; }
  void reserve(size_t N) { Words.reserve(N); }
  size_t capacityBytes() const { return Words.capacity() * sizeof(uint32_t); }

  /// Copies the live clause \p R into \p To and leaves its new CRef behind
  /// for forward().
  CRef relocate(CRef R, ClauseArena &To) {
    uint32_t &Header = Words[R];
    assert(!(Header & (Clause::DeadBit | Clause::RelocedBit)) &&
           "relocating a dead or already relocated clause");
    uint32_t Extra = (Header & Clause::LearntBit) ? Clause::LearntExtra : 0;
    uint32_t Size = Header & Clause::SizeMask;
    To.Words.insert(To.Words.end(), Words.begin() + (R - Extra),
                    Words.begin() + (R + 1 + Size));
    CRef NewRef = static_cast<CRef>(To.Words.size() - Size - 1);
    Header |= Clause::RelocedBit;
    Words[R + 1] = NewRef; // every stored clause has at least two literals
    return NewRef;
  }

  /// The CRef a relocated clause moved to.
  CRef forward(CRef R) const {
    assert((Words[R] & Clause::RelocedBit) && "clause was not relocated");
    return Words[R + 1];
  }

private:
  std::vector<uint32_t> Words;
  size_t Wasted = 0;
};

} // namespace sat
} // namespace psketch

#endif // PSKETCH_SAT_SATTYPES_H
