#include "kb/symbol_table.h"

#include <iterator>

namespace kbrepair {

TermId SymbolTable::InternTerm(TermKind kind, std::string_view name) {
  NameIndex<TermId>& index = term_index_[static_cast<size_t>(kind)];
  const TermId* found = index.Find(name);
  if (found != nullptr) return *found;
  const TermId id = static_cast<TermId>(terms_.size());
  terms_.PushBack(TermEntry{kind, std::string(name)});
  index.InsertAbsent(std::string(name), id);
  return id;
}

TermId SymbolTable::FindTerm(TermKind kind, std::string_view name) const {
  const TermId* found = term_index_[static_cast<size_t>(kind)].Find(name);
  return found == nullptr ? kInvalidTerm : *found;
}

TermId SymbolTable::MakeFreshNull() {
  // Loop in case a user-supplied null already claimed the name.
  while (true) {
    std::string name = "_N" + std::to_string(++fresh_null_counter_);
    if (FindTerm(TermKind::kNull, name) == kInvalidTerm) {
      return InternNull(name);
    }
  }
}

TermId SymbolTable::MakeFreshVariable() {
  while (true) {
    std::string name = "_V" + std::to_string(++fresh_variable_counter_);
    if (FindTerm(TermKind::kVariable, name) == kInvalidTerm) {
      return InternVariable(name);
    }
  }
}

TermId SymbolTable::ScratchNull(size_t index) {
  while (scratch_nulls_.size() <= index) {
    const TermId id = static_cast<TermId>(terms_.size());
    terms_.PushBack(TermEntry{
        TermKind::kNull, "_S" + std::to_string(scratch_nulls_.size())});
    scratch_nulls_.PushBack(id);
  }
  return scratch_nulls_[index];
}

PredicateId SymbolTable::InternPredicate(std::string_view name, int arity) {
  const PredicateId id = FindOrInternPredicate(name, arity);
  KBREPAIR_CHECK_EQ(predicate_arity(id), arity)
      << " predicate " << name << " re-interned with different arity";
  return id;
}

PredicateId SymbolTable::FindOrInternPredicate(std::string_view name,
                                               int arity) {
  const PredicateId* found = predicate_index_.Find(name);
  if (found != nullptr) return *found;
  KBREPAIR_CHECK(arity >= 1) << " predicate " << name;
  const PredicateId id = static_cast<PredicateId>(predicates_.size());
  predicates_.PushBack(PredicateEntry{std::string(name), arity});
  predicate_index_.InsertAbsent(std::string(name), id);
  return id;
}

PredicateId SymbolTable::FindPredicate(std::string_view name) const {
  const PredicateId* found = predicate_index_.Find(name);
  return found == nullptr ? kInvalidPredicate : *found;
}

void SymbolTable::FreezeSharedBase() {
  terms_.Freeze();
  for (NameIndex<TermId>& index : term_index_) index.Freeze();
  predicates_.Freeze();
  predicate_index_.Freeze();
  scratch_nulls_.Freeze();
}

void SymbolTable::ForkFrom(const SymbolTable& frozen) {
  KBREPAIR_CHECK(num_terms() == 0 && num_predicates() == 0)
      << " ForkFrom requires an empty symbol table";
  KBREPAIR_DCHECK(frozen.has_shared_base() || frozen.num_terms() == 0);
  terms_ = frozen.terms_;
  for (size_t kind = 0; kind < std::size(term_index_); ++kind) {
    term_index_[kind] = frozen.term_index_[kind];
  }
  predicates_ = frozen.predicates_;
  predicate_index_ = frozen.predicate_index_;
  scratch_nulls_ = frozen.scratch_nulls_;
  fresh_null_counter_ = frozen.fresh_null_counter_;
  fresh_variable_counter_ = frozen.fresh_variable_counter_;
}

}  // namespace kbrepair
