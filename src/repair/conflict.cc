#include "repair/conflict.h"

#include <algorithm>
#include <utility>

#include "chase/support.h"
#include "repair/delta_conflicts.h"
#include "util/logging.h"
#include "util/trace.h"

namespace kbrepair {

namespace {

// Distinct matched atoms, ascending — the support of a naive conflict.
std::vector<AtomId> DistinctSorted(std::vector<AtomId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

ConflictFinder::ConflictFinder(SymbolTable* symbols,
                               const std::vector<Tgd>* tgds,
                               const std::vector<Cdd>* cdds,
                               ChaseOptions chase_options)
    : symbols_(symbols),
      tgds_(tgds),
      cdds_(cdds),
      chase_options_(chase_options) {
  KBREPAIR_CHECK(symbols != nullptr);
  KBREPAIR_CHECK(tgds != nullptr);
  KBREPAIR_CHECK(cdds != nullptr);
}

StatusOr<std::vector<Conflict>> ConflictFinder::AllConflicts(
    const FactBase& facts) const {
  ChaseEngine engine(symbols_, tgds_, /*cdds=*/nullptr, chase_options_);
  KBREPAIR_ASSIGN_OR_RETURN(ChaseResult chased, engine.Run(facts));

  trace::ScopedSpan span("conflicts.enumerate", trace::Phase::kConflictScan);
  std::vector<Conflict> conflicts;
  HomomorphismFinder finder(symbols_, &chased.facts());
  // Supports go through the canonical resolver, not fire-time
  // provenance, so they are a function of the chased base alone and
  // comparable with the incremental engine's (see chase/support.h).
  CanonicalSupportResolver support(symbols_, tgds_, &chased.facts(),
                                   chased.num_original());
  for (size_t c = 0; c < cdds_->size(); ++c) {
    finder.FindAll((*cdds_)[c].body(), [&](const Homomorphism& hom) {
      Conflict conflict;
      conflict.cdd_index = c;
      conflict.matched = hom.matched;
      conflict.support = support.Support(hom.matched);
      conflicts.push_back(std::move(conflict));
      return true;
    });
  }
  return conflicts;
}

std::vector<Conflict> ConflictFinder::NaiveConflicts(
    const FactBase& facts) const {
  trace::ScopedSpan span("conflicts.naive", trace::Phase::kConflictScan);
  std::vector<Conflict> conflicts;
  HomomorphismFinder finder(symbols_, &facts);
  for (size_t c = 0; c < cdds_->size(); ++c) {
    finder.FindAll((*cdds_)[c].body(), [&](const Homomorphism& hom) {
      Conflict conflict;
      conflict.cdd_index = c;
      conflict.matched = hom.matched;
      conflict.support = DistinctSorted(hom.matched);
      conflicts.push_back(std::move(conflict));
      return true;
    });
  }
  return conflicts;
}

std::vector<Conflict> ConflictFinder::NaiveConflictsTouching(
    const FactBase& facts, AtomId anchor) const {
  std::vector<Conflict> conflicts;
  const PredicateId anchor_pred = facts.atom(anchor).predicate;
  HomomorphismFinder finder(symbols_, &facts);
  for (size_t c = 0; c < cdds_->size(); ++c) {
    const std::vector<Atom>& body = (*cdds_)[c].body();
    // Pin each body atom of the anchor's predicate to the anchor in
    // turn. A homomorphism using the anchor at several body positions
    // would be found once per pin, so keep it only when the pin is the
    // first body position mapped to the anchor.
    for (size_t pin = 0; pin < body.size(); ++pin) {
      if (body[pin].predicate != anchor_pred) continue;
      finder.FindAllPinned(body, pin, anchor, [&](const Homomorphism& hom) {
        for (size_t j = 0; j < pin; ++j) {
          if (hom.matched[j] == anchor) return true;  // counted earlier
        }
        Conflict conflict;
        conflict.cdd_index = c;
        conflict.matched = hom.matched;
        conflict.support = DistinctSorted(hom.matched);
        conflicts.push_back(std::move(conflict));
        return true;
      });
    }
  }
  return conflicts;
}

OverlapIndicators ComputeOverlapIndicators(
    const std::vector<Conflict>& conflicts) {
  OverlapIndicators indicators;

  std::unordered_set<AtomId> atoms;
  for (const Conflict& conflict : conflicts) {
    atoms.insert(conflict.support.begin(), conflict.support.end());
  }
  indicators.atoms_in_conflicts = atoms.size();

  if (conflicts.size() < 2) return indicators;

  size_t overlap_pairs = 0;
  size_t overlap_atoms_total = 0;
  std::vector<size_t> scope(conflicts.size(), 0);
  for (size_t i = 0; i < conflicts.size(); ++i) {
    for (size_t j = i + 1; j < conflicts.size(); ++j) {
      // Supports are sorted; count the intersection size.
      const std::vector<AtomId>& a = conflicts[i].support;
      const std::vector<AtomId>& b = conflicts[j].support;
      size_t ia = 0;
      size_t ib = 0;
      size_t common = 0;
      while (ia < a.size() && ib < b.size()) {
        if (a[ia] == b[ib]) {
          ++common;
          ++ia;
          ++ib;
        } else if (a[ia] < b[ib]) {
          ++ia;
        } else {
          ++ib;
        }
      }
      if (common > 0) {
        ++overlap_pairs;
        overlap_atoms_total += common;
        ++scope[i];
        ++scope[j];
      }
    }
  }
  if (overlap_pairs > 0) {
    indicators.avg_atoms_per_overlap =
        static_cast<double>(overlap_atoms_total) /
        static_cast<double>(overlap_pairs);
  }
  size_t scope_total = 0;
  for (size_t s : scope) scope_total += s;
  indicators.avg_scope =
      static_cast<double>(scope_total) / static_cast<double>(conflicts.size());
  return indicators;
}

std::string ExplainConflict(const Conflict& conflict,
                            const std::vector<Cdd>& cdds,
                            const FactBase& facts,
                            const SymbolTable& symbols,
                            const ChaseResult* chased) {
  const Cdd& violated = cdds[conflict.cdd_index];
  std::string out = "violated constraint";
  if (!violated.label().empty()) out += " [" + violated.label() + "]";
  out += ": " + violated.ToString(symbols) + "\n";
  const std::vector<Atom>& body = cdds[conflict.cdd_index].body();
  for (size_t j = 0; j < conflict.matched.size(); ++j) {
    const AtomId id = conflict.matched[j];
    out += "  " + body[j].ToString(symbols) + "  matched  ";
    if (id < facts.size()) {
      out += facts.atom(id).ToString(symbols);
    } else if (chased != nullptr && id < chased->facts().size()) {
      out += chased->facts().atom(id).ToString(symbols) +
             "  (derived by TGD #" +
             std::to_string(chased->derivation(id).tgd_index) + ")";
    } else {
      out += "<derived atom " + std::to_string(id) + ">";
    }
    out += "\n";
  }
  out += "  supported by original facts:";
  for (AtomId id : conflict.support) {
    out += " " + facts.atom(id).ToString(symbols);
  }
  out += "\n";
  return out;
}

namespace {

// DOT string literals need quotes escaped.
std::string DotEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string ConflictHypergraphToDot(const std::vector<Conflict>& conflicts,
                                    const FactBase& facts,
                                    const SymbolTable& symbols) {
  std::string out = "graph conflict_hypergraph {\n";
  out += "  node [fontsize=10];\n";
  std::unordered_set<AtomId> atoms;
  for (size_t c = 0; c < conflicts.size(); ++c) {
    out += "  conflict" + std::to_string(c) + " [shape=box, label=\"X" +
           std::to_string(c) + " (cdd " +
           std::to_string(conflicts[c].cdd_index) + ")\"];\n";
    atoms.insert(conflicts[c].support.begin(), conflicts[c].support.end());
  }
  for (AtomId id : atoms) {
    out += "  atom" + std::to_string(id) + " [shape=ellipse, label=\"" +
           DotEscape(facts.atom(id).ToString(symbols)) + "\"];\n";
  }
  for (size_t c = 0; c < conflicts.size(); ++c) {
    for (AtomId id : conflicts[c].support) {
      out += "  conflict" + std::to_string(c) + " -- atom" +
             std::to_string(id) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

ConflictTracker::ConflictTracker(const ConflictFinder* finder)
    : finder_(finder) {
  KBREPAIR_CHECK(finder != nullptr);
}

void ConflictTracker::Initialize(const FactBase& facts) {
  InitializeFromCensus(finder_->NaiveConflicts(facts));
}

void ConflictTracker::InitializeFromCensus(std::vector<Conflict> census) {
  conflicts_.clear();
  by_atom_.clear();
  next_id_ = 0;
  for (Conflict& conflict : census) AddConflict(std::move(conflict));
}

void ConflictTracker::OnFixApplied(const FactBase& facts, AtomId atom) {
  // Drop every conflict whose support contains the modified atom.
  for (uint64_t id : ConflictsTouching(atom)) RemoveConflict(id);
  // Re-evaluate only CDDs related to the atom, anchored at it. A
  // re-found conflict cannot coincide with a surviving one: every
  // re-found homomorphism uses `atom`, and all such conflicts were just
  // removed. AddConflict asserts this in debug builds.
  for (Conflict& conflict : finder_->NaiveConflictsTouching(facts, atom)) {
    AddConflict(std::move(conflict));
  }
}

std::vector<Conflict> ConflictTracker::CanonicalConflicts(
    size_t num_original) const {
  std::vector<Conflict> out;
  out.reserve(conflicts_.size());
  for (const auto& [id, conflict] : conflicts_) out.push_back(conflict);
  CanonicalizeConflicts(out, num_original);
  return out;
}

std::vector<uint64_t> ConflictTracker::ConflictsTouching(AtomId atom) const {
  auto it = by_atom_.find(atom);
  if (it == by_atom_.end()) return {};
  return std::vector<uint64_t>(it->second.begin(), it->second.end());
}

size_t ConflictTracker::NumConflictsTouching(AtomId atom) const {
  auto it = by_atom_.find(atom);
  return it == by_atom_.end() ? 0 : it->second.size();
}

void ConflictTracker::AddConflict(Conflict conflict) {
#ifndef NDEBUG
  for (const auto& [existing_id, existing] : conflicts_) {
    KBREPAIR_DCHECK(!existing.SameAs(conflict))
        << "duplicate naive conflict added for CDD "
        << conflict.cdd_index;
  }
#endif
  const uint64_t id = next_id_++;
  for (AtomId atom : conflict.support) by_atom_[atom].insert(id);
  conflicts_.emplace(id, std::move(conflict));
}

void ConflictTracker::RemoveConflict(uint64_t id) {
  auto it = conflicts_.find(id);
  KBREPAIR_CHECK(it != conflicts_.end());
  for (AtomId atom : it->second.support) {
    auto atom_it = by_atom_.find(atom);
    KBREPAIR_CHECK(atom_it != by_atom_.end());
    atom_it->second.erase(id);
    if (atom_it->second.empty()) by_atom_.erase(atom_it);
  }
  conflicts_.erase(it);
}

}  // namespace kbrepair
