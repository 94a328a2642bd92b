#include "repair/delta_conflicts.h"

#include <algorithm>
#include <utility>

#include "chase/support.h"
#include "kb/homomorphism.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/trace.h"

namespace kbrepair {

namespace {

// Matched ids are comparable across engines only below num_original;
// derived ids all collapse to one sentinel ordered after every original.
uint64_t PatternId(AtomId id, size_t num_original) {
  return id < num_original ? static_cast<uint64_t>(id)
                           : static_cast<uint64_t>(-1);
}

}  // namespace

bool CanonicalConflictLess(const Conflict& a, const Conflict& b,
                           size_t num_original) {
  if (a.cdd_index != b.cdd_index) return a.cdd_index < b.cdd_index;
  const size_t n = std::min(a.matched.size(), b.matched.size());
  for (size_t j = 0; j < n; ++j) {
    const uint64_t pa = PatternId(a.matched[j], num_original);
    const uint64_t pb = PatternId(b.matched[j], num_original);
    if (pa != pb) return pa < pb;
  }
  if (a.matched.size() != b.matched.size()) {
    return a.matched.size() < b.matched.size();
  }
  return a.support < b.support;
}

void CanonicalizeConflicts(std::vector<Conflict>& conflicts,
                           size_t num_original) {
  std::sort(conflicts.begin(), conflicts.end(),
            [num_original](const Conflict& a, const Conflict& b) {
              return CanonicalConflictLess(a, b, num_original);
            });
}

DeltaConflictEngine::DeltaConflictEngine(SymbolTable* symbols,
                                         const std::vector<Tgd>* tgds,
                                         const std::vector<Cdd>* cdds,
                                         ChaseOptions chase_options)
    : chase_(symbols, tgds, chase_options), symbols_(symbols), cdds_(cdds) {
  KBREPAIR_CHECK(cdds != nullptr);
  for (size_t c = 0; c < cdds_->size(); ++c) {
    const std::vector<Atom>& body = (*cdds_)[c].body();
    for (size_t j = 0; j < body.size(); ++j) {
      cdd_anchor_index_[body[j].predicate].emplace_back(c, j);
    }
  }

  // Predicate-level provenance closure: head_pred -> body_pred edges
  // (the TGD body->head graph reversed), then for each head predicate
  // the set reachable over them. Atoms of a non-head predicate are never
  // derived, so they need no entry.
  std::unordered_map<int32_t, std::vector<int32_t>> fed_by;
  for (const Tgd& tgd : *tgds) {
    for (const Atom& head : tgd.head()) {
      std::vector<int32_t>& bodies = fed_by[head.predicate];
      for (const Atom& body : tgd.body()) bodies.push_back(body.predicate);
    }
  }
  std::vector<int32_t> frontier;
  for (const auto& [pred, unused] : fed_by) {
    std::unordered_set<int32_t>& reach = contributors_[pred];
    reach.insert(pred);
    frontier.assign(1, pred);
    while (!frontier.empty()) {
      const int32_t q = frontier.back();
      frontier.pop_back();
      auto it = fed_by.find(q);
      if (it == fed_by.end()) continue;
      for (const int32_t p : it->second) {
        if (reach.insert(p).second) frontier.push_back(p);
      }
    }
  }
}

Status DeltaConflictEngine::Initialize(FactBase facts) {
  KBREPAIR_RETURN_IF_ERROR(chase_.Initialize(std::move(facts)));
  conflicts_.clear();
  by_matched_.clear();
  next_id_ = 0;

  HomomorphismFinder finder(symbols_, &chase_.facts());
  CanonicalSupportResolver support(symbols_, chase_.tgds(), &chase_.facts(),
                                   chase_.num_original());
  for (size_t c = 0; c < cdds_->size(); ++c) {
    finder.FindAll((*cdds_)[c].body(), [&](const Homomorphism& hom) {
      Conflict conflict;
      conflict.cdd_index = c;
      conflict.matched = hom.matched;
      conflict.support = support.Support(hom.matched);
      AddConflict(std::move(conflict));
      return true;
    });
  }
  return Status::Ok();
}

Status DeltaConflictEngine::InitializeFromShared(
    const DeltaConflictEngine& frozen) {
  KBREPAIR_CHECK(frozen.initialized());
  chase_.AdoptShared(frozen.chase_);
  conflicts_ = frozen.conflicts_;
  by_matched_ = frozen.by_matched_;
  next_id_ = frozen.next_id_;
  return Status::Ok();
}

Status DeltaConflictEngine::OnFixApplied(AtomId atom, int arg,
                                         TermId value) {
  KBREPAIR_CHECK(initialized());
  KBREPAIR_ASSIGN_OR_RETURN(const IncrementalChase::Delta delta,
                            chase_.ApplyFix(atom, arg, value));

  // Drop conflicts whose homomorphism used a changed atom. Retracted
  // atoms are gone; homomorphisms through the rewritten atom must be
  // re-proved under its new arguments.
  DropConflictsMatching(delta.modified);
  for (AtomId id : delta.retracted) DropConflictsMatching(id);

  // Re-enumerate pinned at every changed atom: the rewritten original
  // plus each newly derived atom. (delta.added is ascending and all its
  // ids exceed the original range, so modified-first keeps the anchor
  // list sorted.)
  std::vector<AtomId> anchors;
  anchors.reserve(delta.added.size() + 1);
  anchors.push_back(delta.modified);
  anchors.insert(anchors.end(), delta.added.begin(), delta.added.end());
  CanonicalSupportResolver support(symbols_, chase_.tgds(), &chase_.facts(),
                                   chase_.num_original());
  AddConflictsAnchoredAt(anchors, support);

  std::unordered_set<int32_t> changed_preds;
  changed_preds.insert(chase_.facts().atom(delta.modified).predicate);
  for (const AtomId id : delta.retracted) {
    changed_preds.insert(chase_.facts().atom(id).predicate);
  }
  for (const AtomId id : delta.added) {
    changed_preds.insert(chase_.facts().atom(id).predicate);
  }
  RefreshDerivedSupports(changed_preds, support);
  KBREPAIR_FAILPOINT(
      "delta.corrupt",
      Status::Internal("injected delta conflict-engine divergence"));
  return VerifyInvariants();
}

Status DeltaConflictEngine::VerifyInvariants() const {
  const size_t num_original = chase_.num_original();
  for (const auto& [id, conflict] : conflicts_) {
    if (conflict.support.empty()) {
      return Status::Internal(
          "delta conflict engine invariant violated: conflict with empty "
          "support");
    }
    for (const AtomId s : conflict.support) {
      if (s >= num_original) {
        return Status::Internal(
            "delta conflict engine invariant violated: support atom outside "
            "the original range");
      }
    }
    for (const AtomId m : conflict.matched) {
      if (m >= chase_.facts().size() || !chase_.facts().alive(m)) {
        return Status::Internal(
            "delta conflict engine invariant violated: conflict matches a "
            "dead atom");
      }
      auto it = by_matched_.find(m);
      if (it == by_matched_.end() || it->second.count(id) == 0) {
        return Status::Internal(
            "delta conflict engine invariant violated: matched index out of "
            "sync with the conflict map");
      }
    }
  }
  return Status::Ok();
}

void DeltaConflictEngine::RefreshDerivedSupports(
    const std::unordered_set<int32_t>& changed_preds,
    CanonicalSupportResolver& support) {
  const size_t num_original = chase_.num_original();
  for (auto& [id, conflict] : conflicts_) {
    bool affected = false;
    for (const AtomId m : conflict.matched) {
      if (m < num_original) continue;
      auto it = contributors_.find(chase_.facts().atom(m).predicate);
      if (it == contributors_.end()) continue;
      for (const int32_t pred : changed_preds) {
        if (it->second.count(pred) != 0) {
          affected = true;
          break;
        }
      }
      if (affected) break;
    }
    if (affected) conflict.support = support.Support(conflict.matched);
  }
}

void DeltaConflictEngine::AddConflictsAnchoredAt(
    const std::vector<AtomId>& anchors, CanonicalSupportResolver& support) {
  trace::ScopedSpan span("conflicts.delta_enumerate",
                         trace::Phase::kConflictScan);
  const FactBase& chased = chase_.facts();
  HomomorphismFinder finder(symbols_, &chased);
  for (const AtomId anchor : anchors) {
    const PredicateId pred = chased.atom(anchor).predicate;
    auto it = cdd_anchor_index_.find(pred);
    if (it == cdd_anchor_index_.end()) continue;
    for (const auto& [cdd_index, pin] : it->second) {
      const std::vector<Atom>& body = (*cdds_)[cdd_index].body();
      if (body[pin].predicate != pred) continue;  // defensive; index-built
      finder.FindAllPinned(body, pin, anchor, [&](const Homomorphism& hom) {
        // Pin-first within the anchor: a homomorphism using the anchor
        // at several body positions is enumerated once per pin.
        for (size_t j = 0; j < pin; ++j) {
          if (hom.matched[j] == anchor) return true;
        }
        // Min-anchor across anchors: a homomorphism using several
        // changed atoms is kept only at the smallest one.
        for (const AtomId other : anchors) {
          if (other >= anchor) break;  // anchors ascending
          for (const AtomId m : hom.matched) {
            if (m == other) return true;
          }
        }
        Conflict conflict;
        conflict.cdd_index = cdd_index;
        conflict.matched = hom.matched;
        conflict.support = support.Support(hom.matched);
        AddConflict(std::move(conflict));
        return true;
      });
    }
  }
}

void DeltaConflictEngine::AddConflict(Conflict conflict) {
#ifndef NDEBUG
  // A newly enumerated homomorphism must be genuinely new (see the
  // header's dedup argument); SameAs is the identity that must not
  // collide.
  for (const auto& [id, live] : conflicts_) {
    KBREPAIR_DCHECK(!live.SameAs(conflict));
  }
#endif
  const uint64_t id = next_id_++;
  for (AtomId m : conflict.matched) by_matched_[m].insert(id);
  conflicts_.emplace(id, std::move(conflict));
}

void DeltaConflictEngine::DropConflictsMatching(AtomId atom) {
  auto it = by_matched_.find(atom);
  if (it == by_matched_.end()) return;
  const std::vector<uint64_t> ids(it->second.begin(), it->second.end());
  for (const uint64_t id : ids) {
    auto conflict_it = conflicts_.find(id);
    KBREPAIR_CHECK(conflict_it != conflicts_.end());
    for (AtomId m : conflict_it->second.matched) {
      auto m_it = by_matched_.find(m);
      if (m_it == by_matched_.end()) continue;
      m_it->second.erase(id);
      if (m_it->second.empty()) by_matched_.erase(m_it);
    }
    conflicts_.erase(conflict_it);
  }
}

std::vector<Conflict> DeltaConflictEngine::CanonicalConflicts() const {
  std::vector<Conflict> out;
  out.reserve(conflicts_.size());
  for (const auto& [id, conflict] : conflicts_) out.push_back(conflict);
  CanonicalizeConflicts(out, chase_.num_original());
  // Drops the last canonical conflict when armed. Only the incremental
  // engine runs through here, so arming this diverges its dialogue from
  // the scratch engine's at a deterministic step — the fault drill for
  // kbrepair-debug --diff-engines.
  if (failpoint::ShouldFail("delta.census_drop") && !out.empty()) {
    out.pop_back();
  }
  return out;
}

std::vector<Conflict> DeltaConflictEngine::ConflictsUsingSupport(
    AtomId atom) const {
  std::vector<Conflict> out;
  for (const auto& [id, conflict] : conflicts_) {
    if (std::binary_search(conflict.support.begin(), conflict.support.end(),
                           atom)) {
      out.push_back(conflict);
    }
  }
  CanonicalizeConflicts(out, chase_.num_original());
  return out;
}

}  // namespace kbrepair
