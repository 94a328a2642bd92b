#include "rules/tgd.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace kbrepair {

std::vector<TermId> CollectVariables(const std::vector<Atom>& atoms,
                                     const SymbolTable& symbols) {
  // Sort (variable, occurrence index) pairs, keep each variable's first
  // occurrence, restore occurrence order: O(n log n) in the rule's size
  // and no allocation per variable, unlike a hash set.
  std::vector<std::pair<TermId, uint32_t>> occurrences;
  for (const Atom& atom : atoms) {
    for (TermId term : atom.args) {
      if (symbols.IsVariable(term)) {
        occurrences.emplace_back(
            term, static_cast<uint32_t>(occurrences.size()));
      }
    }
  }
  std::sort(occurrences.begin(), occurrences.end());
  auto same_variable = [](const auto& a, const auto& b) {
    return a.first == b.first;
  };
  occurrences.erase(
      std::unique(occurrences.begin(), occurrences.end(), same_variable),
      occurrences.end());
  std::sort(occurrences.begin(), occurrences.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<TermId> variables;
  variables.reserve(occurrences.size());
  for (const auto& [term, index] : occurrences) variables.push_back(term);
  return variables;
}

namespace {

Status ValidateRuleAtoms(const std::vector<Atom>& atoms,
                         const SymbolTable& symbols, const char* part) {
  for (const Atom& atom : atoms) {
    if (atom.predicate == kInvalidPredicate) {
      return Status::InvalidArgument(std::string(part) +
                                     " contains an atom without predicate");
    }
    if (atom.arity() != symbols.predicate_arity(atom.predicate)) {
      return Status::InvalidArgument(
          std::string(part) + " atom arity mismatch for predicate " +
          symbols.predicate_name(atom.predicate));
    }
    for (TermId term : atom.args) {
      if (symbols.IsNull(term)) {
        return Status::InvalidArgument(
            std::string(part) + " contains a labeled null; rules may only "
                                "use constants and variables");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<Tgd> Tgd::Create(std::vector<Atom> body, std::vector<Atom> head,
                          const SymbolTable& symbols) {
  if (body.empty()) {
    return Status::InvalidArgument("TGD body must be non-empty");
  }
  if (head.empty()) {
    return Status::InvalidArgument("TGD head must be non-empty");
  }
  KBREPAIR_RETURN_IF_ERROR(ValidateRuleAtoms(body, symbols, "TGD body"));
  KBREPAIR_RETURN_IF_ERROR(ValidateRuleAtoms(head, symbols, "TGD head"));

  Tgd tgd;
  tgd.body_ = std::move(body);
  tgd.head_ = std::move(head);

  std::vector<TermId> body_vars = CollectVariables(tgd.body_, symbols);
  std::sort(body_vars.begin(), body_vars.end());
  for (TermId var : CollectVariables(tgd.head_, symbols)) {
    if (std::binary_search(body_vars.begin(), body_vars.end(), var)) {
      tgd.frontier_variables_.push_back(var);
    } else {
      tgd.existential_variables_.push_back(var);
    }
  }
  return tgd;
}

std::string Tgd::ToString(const SymbolTable& symbols) const {
  return AtomsToString(body_, symbols) + " -> " +
         AtomsToString(head_, symbols);
}

}  // namespace kbrepair
