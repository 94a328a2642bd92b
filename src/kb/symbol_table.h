// Interning tables for terms and predicates.
//
// All terms (constants, rule variables, labeled nulls) and predicates are
// interned into dense integer ids. Atoms are then just small integer
// vectors, which makes homomorphism search, indexing and hashing cheap —
// the same design used by in-memory Datalog engines.

#ifndef KBREPAIR_KB_SYMBOL_TABLE_H_
#define KBREPAIR_KB_SYMBOL_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/cow.h"
#include "util/logging.h"

namespace kbrepair {

// Dense id of an interned term. Valid ids are >= 0.
using TermId = int32_t;
inline constexpr TermId kInvalidTerm = -1;

// Dense id of an interned predicate. Valid ids are >= 0.
using PredicateId = int32_t;
inline constexpr PredicateId kInvalidPredicate = -1;

// The three syntactic categories of terms in the paper's KB model.
enum class TermKind : uint8_t {
  kConstant = 0,  // e.g. Aspirin, John
  kVariable = 1,  // universally/existentially quantified rule variable
  kNull = 2,      // labeled null (frozen existential), e.g. X_1 in facts
};

// Owns the string<->id mappings for terms and predicates.
//
// Labeled nulls and rule variables can be minted fresh
// (MakeFreshNull/MakeFreshVariable); freshness is global to the table, so
// a null invented during the chase or by a position fix can never collide
// with an existing value — the property Definition 3.1 relies on.
class SymbolTable {
 public:
  SymbolTable() = default;

  // SymbolTable is shared by reference between the fact base, rules and
  // the repair engine; copying one by accident is almost always a bug.
  // The copy constructor is private (see Clone() below); assignment
  // stays deleted outright.
  SymbolTable& operator=(const SymbolTable&) = delete;

  // --- Terms -------------------------------------------------------------

  // Interns (creating if absent) a term with the given kind and name.
  // The same name may exist with different kinds ("X" the constant and
  // "X" the variable are distinct terms).
  // One hash probe when the term exists, two when it is new.
  TermId InternTerm(TermKind kind, std::string_view name);

  TermId InternConstant(std::string_view name) {
    return InternTerm(TermKind::kConstant, name);
  }
  TermId InternVariable(std::string_view name) {
    return InternTerm(TermKind::kVariable, name);
  }
  TermId InternNull(std::string_view name) {
    return InternTerm(TermKind::kNull, name);
  }

  // Returns the id of an existing term, or kInvalidTerm.
  TermId FindTerm(TermKind kind, std::string_view name) const;

  // Mints a brand-new labeled null (name "_N<k>").
  TermId MakeFreshNull();

  // Mints a brand-new rule variable (name "_V<k>"), used when renaming
  // rule heads apart ("safe(H)" in the paper).
  TermId MakeFreshVariable();

  // Scratch null #index of the table-wide pool backing Π-skeletons
  // (repair/repairability.h). Pool entries are anonymous: they are named
  // "_S<index>" for rendering but never enter the name index, so no
  // interned term — a user fact null spelled "_S1" included — can alias
  // one. The pool grows on demand, appending ids in index order; it is
  // part of the table's shared state, so FreezeSharedBase(), ForkFrom()
  // and Clone() carry it and every checker over a table or its forks
  // sees the same ids.
  TermId ScratchNull(size_t index);

  TermKind term_kind(TermId id) const {
    KBREPAIR_DCHECK(id >= 0 && static_cast<size_t>(id) < terms_.size());
    return terms_[static_cast<size_t>(id)].kind;
  }
  const std::string& term_name(TermId id) const {
    KBREPAIR_DCHECK(id >= 0 && static_cast<size_t>(id) < terms_.size());
    return terms_[static_cast<size_t>(id)].name;
  }
  bool IsConstant(TermId id) const {
    return term_kind(id) == TermKind::kConstant;
  }
  bool IsVariable(TermId id) const {
    return term_kind(id) == TermKind::kVariable;
  }
  bool IsNull(TermId id) const { return term_kind(id) == TermKind::kNull; }

  size_t num_terms() const { return terms_.size(); }

  // --- Predicates --------------------------------------------------------

  // Interns a predicate. Re-interning an existing name with a different
  // arity is a CHECK failure (the DLGP format has no arity overloading).
  PredicateId InternPredicate(std::string_view name, int arity);

  // The id of the predicate named `name`, interned with `arity` when
  // absent. An existing predicate is returned whatever its arity, so a
  // caller reading untrusted input compares predicate_arity() itself
  // instead of paying a FindPredicate() probe first.
  PredicateId FindOrInternPredicate(std::string_view name, int arity);

  // Returns the id of an existing predicate, or kInvalidPredicate.
  PredicateId FindPredicate(std::string_view name) const;

  const std::string& predicate_name(PredicateId id) const {
    KBREPAIR_DCHECK(id >= 0 &&
                    static_cast<size_t>(id) < predicates_.size());
    return predicates_[static_cast<size_t>(id)].name;
  }
  int predicate_arity(PredicateId id) const {
    KBREPAIR_DCHECK(id >= 0 &&
                    static_cast<size_t>(id) < predicates_.size());
    return predicates_[static_cast<size_t>(id)].arity;
  }

  size_t num_predicates() const { return predicates_.size(); }

  // --- Shared-base forking -----------------------------------------------

  // Flattens the current contents into an immutable shared base segment.
  // Afterwards ForkFrom() on an empty table shares that segment in O(1)
  // and the fork only materializes symbols it interns itself. Existing
  // ids and lookups are unchanged.
  void FreezeSharedBase();

  // Makes this (empty) table an O(delta) fork of `frozen`, which must
  // have been FreezeSharedBase()'d. The fork sees every base symbol
  // under its original id; new interns append after the base.
  void ForkFrom(const SymbolTable& frozen);

  bool has_shared_base() const { return terms_.has_base(); }
  // Symbols this table interned itself (not inherited from the base).
  size_t overlay_size() const {
    return terms_.overlay_size() + predicates_.overlay_size();
  }

  // --- Inspection snapshots ----------------------------------------------

  // Deep, independent copy — an *explicit* escape hatch from the
  // no-copy policy above. Used by read-only inspectors (kbrepair-debug,
  // consistency oracles) that need to chase without minting fresh nulls
  // into the live table, which would perturb deterministic replay.
  // Fresh-null/variable counters carry over, so ids minted in the clone
  // match what the live table would have minted.
  std::unique_ptr<SymbolTable> Clone() const {
    return std::unique_ptr<SymbolTable>(new SymbolTable(*this));
  }

 private:
  // Copying stays private so it can only happen through Clone().
  SymbolTable(const SymbolTable&) = default;

  struct TermEntry {
    TermKind kind;
    std::string name;
  };
  struct PredicateEntry {
    std::string name;
    int arity;
  };

  // Hashes std::string keys and std::string_view probes alike, so
  // lookups never build a key string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>()(name);
    }
  };
  template <typename Id>
  using NameIndex = CowMap<std::string, Id, NameHash, std::equal_to<>>;

  CowVector<TermEntry> terms_;
  // One name index per TermKind: "X" the constant and "X" the variable
  // are distinct terms.
  NameIndex<TermId> term_index_[3];
  CowVector<PredicateEntry> predicates_;
  NameIndex<PredicateId> predicate_index_;
  // Scratch-null pool: index -> TermId (see ScratchNull).
  CowVector<TermId> scratch_nulls_;
  uint64_t fresh_null_counter_ = 0;
  uint64_t fresh_variable_counter_ = 0;
};

}  // namespace kbrepair

#endif  // KBREPAIR_KB_SYMBOL_TABLE_H_
