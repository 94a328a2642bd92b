#include "repair/fix.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"

namespace kbrepair {

std::string Fix::ToString(const SymbolTable& symbols,
                          const FactBase& facts) const {
  return "(" + facts.atom(atom).ToString(symbols) + ", " +
         std::to_string(arg + 1) + ", " + symbols.term_name(value) + ")";
}

std::vector<Position> AllPositions(const FactBase& facts) {
  std::vector<Position> positions;
  positions.reserve(facts.NumPositions());
  for (AtomId id = 0; id < facts.size(); ++id) {
    const int arity = facts.atom(id).arity();
    for (int arg = 0; arg < arity; ++arg) {
      positions.push_back(Position{id, arg});
    }
  }
  return positions;
}

bool IsValidFixSet(const std::vector<Fix>& fixes) {
  std::unordered_map<uint64_t, TermId> seen;
  for (const Fix& fix : fixes) {
    auto [it, inserted] =
        seen.emplace(PositionKey(fix.atom, fix.arg), fix.value);
    if (!inserted && it->second != fix.value) return false;
  }
  return true;
}

bool IsAdmissibleFix(const Fix& fix, const FactBase& facts,
                     const SymbolTable& symbols) {
  if (fix.atom >= facts.size()) return false;
  const Atom& atom = facts.atom(fix.atom);
  if (fix.arg < 0 || fix.arg >= atom.arity()) return false;
  const TermId current = atom.args[static_cast<size_t>(fix.arg)];
  if (fix.value == current) return false;
  if (symbols.IsNull(fix.value)) {
    // A fresh null "uniquely attributed to the position": unused in F.
    return facts.TermUseCount(fix.value) == 0;
  }
  const std::vector<TermId> domain =
      facts.ActiveDomain(atom.predicate, fix.arg);
  return std::binary_search(domain.begin(), domain.end(), fix.value);
}

Status ApplyFixes(FactBase& facts, const std::vector<Fix>& fixes) {
  if (!IsValidFixSet(fixes)) {
    return Status::InvalidArgument(
        "fix set assigns two different values to one position");
  }
  for (const Fix& fix : fixes) {
    if (fix.atom >= facts.size() || fix.arg < 0 ||
        fix.arg >= facts.atom(fix.atom).arity()) {
      return Status::InvalidArgument("fix targets a non-existent position");
    }
  }
  for (const Fix& fix : fixes) ApplyFix(facts, fix);
  return Status::Ok();
}

void ApplyFix(FactBase& facts, const Fix& fix) {
  KBREPAIR_CHECK(fix.atom < facts.size());
  KBREPAIR_CHECK(fix.arg >= 0 && fix.arg < facts.atom(fix.atom).arity());
  facts.SetArg(fix.atom, fix.arg, fix.value);
}

std::vector<Fix> DiffFactBases(const FactBase& before,
                               const FactBase& after) {
  KBREPAIR_CHECK_EQ(before.size(), after.size());
  std::vector<Fix> fixes;
  for (AtomId id = 0; id < before.size(); ++id) {
    const Atom& a = before.atom(id);
    const Atom& b = after.atom(id);
    KBREPAIR_CHECK_EQ(a.predicate, b.predicate);
    KBREPAIR_CHECK_EQ(a.arity(), b.arity());
    for (int arg = 0; arg < a.arity(); ++arg) {
      const TermId va = a.args[static_cast<size_t>(arg)];
      const TermId vb = b.args[static_cast<size_t>(arg)];
      if (va != vb) fixes.push_back(Fix{id, arg, vb});
    }
  }
  return fixes;
}

bool EqualUpToNullRenaming(const FactBase& a, const FactBase& b,
                           const SymbolTable& symbols) {
  if (a.size() != b.size()) return false;
  std::unordered_map<TermId, TermId> a_to_b;
  std::unordered_map<TermId, TermId> b_to_a;
  for (AtomId id = 0; id < a.size(); ++id) {
    const Atom& atom_a = a.atom(id);
    const Atom& atom_b = b.atom(id);
    if (atom_a.predicate != atom_b.predicate ||
        atom_a.arity() != atom_b.arity()) {
      return false;
    }
    for (int arg = 0; arg < atom_a.arity(); ++arg) {
      const TermId va = atom_a.args[static_cast<size_t>(arg)];
      const TermId vb = atom_b.args[static_cast<size_t>(arg)];
      const bool null_a = symbols.IsNull(va);
      const bool null_b = symbols.IsNull(vb);
      if (null_a != null_b) return false;
      if (!null_a) {
        if (va != vb) return false;
        continue;
      }
      // Both nulls: enforce a bijection.
      auto [it_ab, fresh_ab] = a_to_b.emplace(va, vb);
      if (!fresh_ab && it_ab->second != vb) return false;
      auto [it_ba, fresh_ba] = b_to_a.emplace(vb, va);
      if (!fresh_ba && it_ba->second != va) return false;
    }
  }
  return true;
}

}  // namespace kbrepair
