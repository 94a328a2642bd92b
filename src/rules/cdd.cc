#include "rules/cdd.h"

#include <algorithm>
#include <cstddef>
#include <unordered_map>

#include "util/logging.h"

namespace kbrepair {

namespace {

// Union-find over term ids used to normalize equalities. Roots prefer
// constants so that a class containing a constant is represented by it.
class TermUnionFind {
 public:
  explicit TermUnionFind(const SymbolTable& symbols) : symbols_(symbols) {}

  TermId Find(TermId term) {
    auto it = parent_.find(term);
    if (it == parent_.end()) return term;
    const TermId root = Find(it->second);
    it->second = root;
    return root;
  }

  // Returns false on constant=constant conflict with distinct constants.
  bool Union(TermId a, TermId b) {
    const TermId ra = Find(a);
    const TermId rb = Find(b);
    if (ra == rb) return true;
    const bool a_const = symbols_.IsConstant(ra);
    const bool b_const = symbols_.IsConstant(rb);
    if (a_const && b_const) return false;
    if (a_const) {
      parent_[rb] = ra;
    } else {
      parent_[ra] = rb;
    }
    return true;
  }

 private:
  const SymbolTable& symbols_;
  std::unordered_map<TermId, TermId> parent_;
};

}  // namespace

StatusOr<Cdd> Cdd::Create(std::vector<Atom> body,
                          const SymbolTable& symbols,
                          std::vector<TermEquality> equalities) {
  if (body.empty()) {
    return Status::InvalidArgument("CDD body must be non-empty");
  }
  for (const Atom& atom : body) {
    if (atom.predicate == kInvalidPredicate) {
      return Status::InvalidArgument("CDD body atom without predicate");
    }
    if (atom.arity() != symbols.predicate_arity(atom.predicate)) {
      return Status::InvalidArgument(
          "CDD body atom arity mismatch for predicate " +
          symbols.predicate_name(atom.predicate));
    }
    for (TermId term : atom.args) {
      if (symbols.IsNull(term)) {
        return Status::InvalidArgument(
            "CDD body contains a labeled null; constraints may only use "
            "constants and variables");
      }
    }
  }

  // Fold equalities into the body via substitution.
  if (!equalities.empty()) {
    TermUnionFind uf(symbols);
    for (const TermEquality& eq : equalities) {
      if (!uf.Union(eq.left, eq.right)) {
        return Status::InvalidArgument(
            "CDD equality identifies two distinct constants; the "
            "constraint is vacuously unsatisfiable");
      }
    }
    for (Atom& atom : body) {
      for (TermId& arg : atom.args) arg = uf.Find(arg);
    }
  }

  Cdd cdd;
  cdd.body_ = std::move(body);

  // Every variable occurrence across all argument positions, sorted: a
  // variable's occurrences form one run, whose length is its count.
  std::vector<TermId> occurrences;
  for (const Atom& atom : cdd.body_) {
    for (TermId term : atom.args) {
      if (symbols.IsVariable(term)) occurrences.push_back(term);
    }
  }
  std::sort(occurrences.begin(), occurrences.end());
  // Index of the start of `term`'s run, or -1 for a variable occurring
  // once (or a non-variable).
  auto join_run = [&](TermId term) -> ptrdiff_t {
    if (!symbols.IsVariable(term)) return -1;
    const auto [lo, hi] =
        std::equal_range(occurrences.begin(), occurrences.end(), term);
    return hi - lo >= 2 ? lo - occurrences.begin() : -1;
  };
  std::vector<char> listed(occurrences.size(), 0);
  for (const Atom& atom : cdd.body_) {
    for (TermId term : atom.args) {
      const ptrdiff_t run = join_run(term);
      if (run >= 0 && !listed[static_cast<size_t>(run)]) {
        listed[static_cast<size_t>(run)] = 1;
        cdd.join_variables_.push_back(term);
      }
    }
  }

  cdd.resolving_positions_.resize(cdd.body_.size());
  for (size_t i = 0; i < cdd.body_.size(); ++i) {
    const Atom& atom = cdd.body_[i];
    for (int pos = 0; pos < atom.arity(); ++pos) {
      const TermId term = atom.args[static_cast<size_t>(pos)];
      const bool is_join = join_run(term) >= 0;
      const bool is_constant = symbols.IsConstant(term);
      if (is_join || is_constant) {
        cdd.resolving_positions_[i].push_back(pos);
      }
    }
  }
  return cdd;
}

std::string Cdd::ToString(const SymbolTable& symbols) const {
  return AtomsToString(body_, symbols) + " -> !";
}

}  // namespace kbrepair
