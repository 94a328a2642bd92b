// Positions and position fixes — the granularity of update-based
// repairing (Section 3 of the paper).
//
// A position (A, i) names the i-th argument of fact A; a fix (A, i, t)
// rewrites that argument to t, where t is another active-domain value of
// the predicate's i-th argument or a fresh labeled null unique to the
// position (Definition 3.1). Because FactBase atoms have stable ids and
// are updated in place, apply/diff (Definitions 3.2, 3.3) are direct and
// the one-to-one correspondence match() is the identity on atom ids.

#ifndef KBREPAIR_REPAIR_FIX_H_
#define KBREPAIR_REPAIR_FIX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "util/status.h"

namespace kbrepair {

// (A, i): argument position i (0-based) of fact A.
struct Position {
  AtomId atom = 0;
  int arg = 0;

  bool operator==(const Position& other) const {
    return atom == other.atom && arg == other.arg;
  }
  bool operator!=(const Position& other) const { return !(*this == other); }
  bool operator<(const Position& other) const {
    return atom != other.atom ? atom < other.atom : arg < other.arg;
  }
};

// Packs argument position `arg` (>= 0) of `id` — a fact or a predicate —
// into one 64-bit key, distinct for distinct (id, arg) pairs. Args below
// 256 keep the packing (id << 8) | arg, on which hash iteration orders,
// and with them dialogues, depend; wider args set the top bit and sit
// above a 32-bit id.
inline uint64_t PositionKey(uint32_t id, int arg) {
  const uint64_t wide_arg = static_cast<uint32_t>(arg);
  if (wide_arg < 256) return (static_cast<uint64_t>(id) << 8) | wide_arg;
  return (uint64_t{1} << 63) | (wide_arg << 32) | id;
}

struct PositionHash {
  size_t operator()(const Position& p) const {
    return std::hash<uint64_t>()(PositionKey(p.atom, p.arg));
  }
};

// The set Π of immutable positions.
using PositionSet = std::unordered_set<Position, PositionHash>;

// (A, i, t): rewrite position (A, i) to term t.
struct Fix {
  AtomId atom = 0;
  int arg = 0;
  TermId value = kInvalidTerm;

  Position position() const { return Position{atom, arg}; }

  bool operator==(const Fix& other) const {
    return atom == other.atom && arg == other.arg && value == other.value;
  }
  bool operator!=(const Fix& other) const { return !(*this == other); }

  // "(p(a,b), 2, c)" rendering.
  std::string ToString(const SymbolTable& symbols,
                       const FactBase& facts) const;
};

// All positions of the fact base: pos(F).
std::vector<Position> AllPositions(const FactBase& facts);

// True iff no two fixes target the same position with different values
// (the paper's validity condition on fix sets).
bool IsValidFixSet(const std::vector<Fix>& fixes);

// True iff `fix` respects Definition 3.1 against the *current* state of
// `facts`: the value is a labeled null not used anywhere in `facts`, or a
// value from adom(pred, arg, facts) different from the current value.
bool IsAdmissibleFix(const Fix& fix, const FactBase& facts,
                     const SymbolTable& symbols);

// apply(F, P): rewrites the targeted positions in place. Fails (leaving
// `facts` partially updated only on CHECK-level misuse, never on this
// error) if the fix set is invalid or a fix is out of range.
Status ApplyFixes(FactBase& facts, const std::vector<Fix>& fixes);

// Applies a single fix. CHECKs range validity.
void ApplyFix(FactBase& facts, const Fix& fix);

// diff(F, F'): the fix set turning `before` into `after` under the
// identity correspondence. CHECKs that the bases have the same shape
// (same size, predicates and arities per id).
std::vector<Fix> DiffFactBases(const FactBase& before,
                               const FactBase& after);

// True iff the two bases are equal up to a consistent renaming of
// labeled nulls, position by position under the identity correspondence.
// This is the right equality for comparing an inquiry's output with an
// oracle's repair: fresh nulls minted during the dialogue differ in name
// from the oracle's but denote the same unknowns.
bool EqualUpToNullRenaming(const FactBase& a, const FactBase& b,
                           const SymbolTable& symbols);

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_FIX_H_
