#include "chase/incremental_chase.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "kb/homomorphism.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/trace.h"

namespace kbrepair {

namespace {

// A trigger found in a wave's Phase A, pending its Phase B head check.
// The wave discipline is ChaseEngine::Run's (see chase.cc).
struct PendingTrigger {
  size_t tgd_index = 0;
  ArenaSpan<AtomId> matched;    // body-matched atoms, body order
  ArenaSpan<Binding> bindings;  // frontier bindings, flat
};

}  // namespace

IncrementalChase::IncrementalChase(SymbolTable* symbols,
                                   const std::vector<Tgd>* tgds,
                                   ChaseOptions options)
    : symbols_(symbols), tgds_(tgds), options_(options) {
  KBREPAIR_CHECK(symbols != nullptr);
  KBREPAIR_CHECK(tgds != nullptr);
}

Status IncrementalChase::Initialize(FactBase facts) {
  KBREPAIR_CHECK(facts.num_alive() == facts.size());
  initialized_ = false;
  num_original_ = facts.size();
  chased_ = std::move(facts);
  derivations_.Clear();
  children_.Clear();
  suppressed_.Clear();
  suppressed_by_witness_.Clear();
  derivation_arena_ = std::make_shared<Arena>();
  retained_arenas_.clear();

  auto anchors = std::make_shared<AnchorIndex>();
  for (size_t r = 0; r < tgds_->size(); ++r) {
    const std::vector<Atom>& body = (*tgds_)[r].body();
    for (size_t j = 0; j < body.size(); ++j) {
      (*anchors)[body[j].predicate].emplace_back(r, j);
    }
  }
  anchor_index_ = std::move(anchors);

  std::vector<AtomId> work;
  work.reserve(chased_.size());
  for (AtomId id = 0; id < chased_.size(); ++id) work.push_back(id);
  KBREPAIR_RETURN_IF_ERROR(Saturate(std::move(work)));
  initialized_ = true;
  return Status::Ok();
}

void IncrementalChase::FreezeShared() {
  KBREPAIR_CHECK(initialized_);
  chased_.FreezeSharedBase();
  derivations_.Freeze();
  children_.Freeze();
  suppressed_.Freeze();
  suppressed_by_witness_.Freeze();
}

void IncrementalChase::AdoptShared(const IncrementalChase& frozen) {
  KBREPAIR_CHECK(frozen.initialized_);
  KBREPAIR_DCHECK(frozen.chased_.has_shared_base());
  chased_ = frozen.chased_;
  num_original_ = frozen.num_original_;
  derivations_ = frozen.derivations_;
  children_ = frozen.children_;
  anchor_index_ = frozen.anchor_index_;
  suppressed_ = frozen.suppressed_;
  suppressed_by_witness_ = frozen.suppressed_by_witness_;
  // The prototype's derivation spans stay alive through the retained
  // arena chain; this fork's own derivations go into a fresh arena the
  // prototype never sees.
  retained_arenas_ = frozen.retained_arenas_;
  retained_arenas_.push_back(frozen.derivation_arena_);
  derivation_arena_ = std::make_shared<Arena>();
  // A cold Initialize() never resets the lifetime counters, and a fresh
  // chase starts them at zero — so adopting the prototype's values is
  // exactly what Initialize() on the same facts would leave behind.
  total_retracted_ = frozen.total_retracted_;
  total_added_ = frozen.total_added_;
  total_refired_ = frozen.total_refired_;
  initialized_ = true;
}

AtomId IncrementalChase::FindAtom(const Atom& atom) const {
  AtomSpan candidates =
      atom.args.empty()
          ? chased_.AtomsWithPredicate(atom.predicate)
          : chased_.AtomsWithTermAt(atom.predicate, 0, atom.args[0]);
  for (AtomId id : candidates) {
    if (chased_.atom(id) == atom) return id;
  }
  return kInvalidAtom;
}

void IncrementalChase::RecordSuppressed(
    size_t tgd_index, std::vector<AtomId> matched,
    std::vector<Binding> bindings, const std::vector<AtomId>& witnesses) {
  const size_t entry = suppressed_.size();
  suppressed_.PushBack(SuppressedTrigger{tgd_index, std::move(matched),
                                         std::move(bindings)});
  for (AtomId witness : witnesses) {
    suppressed_by_witness_.Mutable(witness).push_back(entry);
  }
}

Status IncrementalChase::FireTrigger(size_t tgd_index, const AtomId* matched,
                                     size_t num_matched,
                                     const Binding* bindings,
                                     size_t num_bindings,
                                     std::vector<AtomId>* work) {
  const Tgd& tgd = (*tgds_)[tgd_index];
  head_scratch_.assign(bindings, bindings + num_bindings);
  const size_t num_frontier = head_scratch_.size();
  for (TermId var : tgd.existential_variables()) {
    head_scratch_.push_back(Binding{var, symbols_->MakeFreshNull()});
  }
  for (const Atom& head_atom : tgd.head()) {
    const Atom instance = SubstituteTerms(head_atom, head_scratch_.data(),
                                          head_scratch_.size());
    bool has_fresh_null = false;
    for (TermId arg : instance.args) {
      for (size_t k = num_frontier; k < head_scratch_.size(); ++k) {
        has_fresh_null = has_fresh_null || head_scratch_[k].term == arg;
      }
    }
    if (!has_fresh_null) {
      // Ground duplicate: remember the trigger keyed by the blocking
      // atom so retraction can revive it.
      const AtomId duplicate = FindAtom(instance);
      if (duplicate != kInvalidAtom) {
        RecordSuppressed(tgd_index,
                         std::vector<AtomId>(matched, matched + num_matched),
                         std::vector<Binding>(bindings,
                                              bindings + num_bindings),
                         {duplicate});
        continue;
      }
    }
    if (chased_.num_alive() >= options_.max_atoms) {
      return Status::Internal(
          "chase exceeded max_atoms; TGD set likely not weakly acyclic or "
          "cap too low");
    }
    const AtomId new_id = chased_.Add(instance);
    KBREPAIR_CHECK_EQ(new_id - num_original_, derivations_.size());
    Derivation derivation;
    derivation.tgd_index = tgd_index;
    derivation.parents = derivation_arena_->Copy(matched, num_matched);
    derivations_.PushBack(std::move(derivation));
    for (size_t j = 0; j < num_matched; ++j) {
      children_.Mutable(matched[j]).push_back(new_id);
    }
    work->push_back(new_id);
    ++total_added_;
  }
  return Status::Ok();
}

Status IncrementalChase::Saturate(std::vector<AtomId> wave) {
  trace::ScopedSpan span("chase.delta_saturate", trace::Phase::kDeltaChase);
  KBREPAIR_FAILPOINT("chase.saturate",
                     Status::Internal("injected chase saturation fault"));
  if (options_.cancel != nullptr) {
    KBREPAIR_RETURN_IF_ERROR(options_.cancel->Check("delta chase"));
  }
  HomomorphismFinder finder(symbols_, &chased_);
  Arena scratch;  // Phase A trigger spans; reset after every wave
  std::vector<PendingTrigger> pending;
  std::vector<AtomId> next;
  std::vector<Atom> head_query;
  size_t steps = 0;

  while (!wave.empty()) {
    if (options_.cancel != nullptr) {
      KBREPAIR_RETURN_IF_ERROR(options_.cancel->Check("delta chase"));
    }

    // --- Phase A: enumerate triggers anchored at each wave atom against
    // the wave-start snapshot (the same discipline as ChaseEngine, so
    // both engines reach competing triggers in the same order).
    pending.clear();
    for (const AtomId current : wave) {
      if (!chased_.alive(current)) continue;
      const PredicateId pred = chased_.atom(current).predicate;
      auto it = anchor_index_->find(pred);
      if (it == anchor_index_->end()) continue;
      for (const auto& [tgd_index, body_pos] : it->second) {
        finder.FindAllPinnedViews(
            (*tgds_)[tgd_index].body(), body_pos, current,
            [&, tgd_index = tgd_index](const HomomorphismView& view) {
              PendingTrigger trigger;
              trigger.tgd_index = tgd_index;
              trigger.matched = scratch.Copy(view.matched, view.num_matched);
              trigger.bindings =
                  scratch.Copy(view.bindings, view.num_bindings);
              pending.push_back(trigger);
              return true;
            });
      }
    }

    // --- Phase B: fire or suppress in Phase A order against the live
    // base.
    next.clear();
    for (const PendingTrigger& trigger : pending) {
      if (options_.cancel != nullptr && (++steps & 63) == 0) {
        KBREPAIR_RETURN_IF_ERROR(options_.cancel->Check("delta chase"));
      }
      const Tgd& tgd = (*tgds_)[trigger.tgd_index];
      head_query.clear();
      for (const Atom& head_atom : tgd.head()) {
        head_query.push_back(SubstituteTerms(head_atom, trigger.bindings.ptr,
                                             trigger.bindings.len));
      }
      std::optional<Homomorphism> witness = finder.FindFirst(head_query);
      if (witness.has_value()) {
        RecordSuppressed(trigger.tgd_index,
                         std::vector<AtomId>(trigger.matched.begin(),
                                             trigger.matched.end()),
                         std::vector<Binding>(trigger.bindings.begin(),
                                              trigger.bindings.end()),
                         witness->matched);
        continue;
      }
      KBREPAIR_RETURN_IF_ERROR(FireTrigger(
          trigger.tgd_index, trigger.matched.ptr, trigger.matched.len,
          trigger.bindings.ptr, trigger.bindings.len, &next));
    }

    scratch.Reset();
    wave.swap(next);
  }
  return Status::Ok();
}

void IncrementalChase::RetractAtom(AtomId id) {
  KBREPAIR_DCHECK(!IsOriginal(id));
  chased_.Remove(id);
  const Derivation& derivation = derivations_[id - num_original_];
  for (AtomId parent : derivation.parents) {
    std::vector<AtomId>* kids = children_.FindMutable(parent);
    if (kids == nullptr) continue;
    auto entry = std::find(kids->begin(), kids->end(), id);
    if (entry != kids->end()) {
      *entry = kids->back();
      kids->pop_back();
      if (kids->empty()) children_.Erase(parent);
    }
  }
  children_.Erase(id);
  ++total_retracted_;
}

std::vector<size_t> IncrementalChase::TakeSuppressedByWitness(
    AtomId witness) {
  std::vector<size_t> entries = suppressed_by_witness_.Take(witness);
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&](size_t e) {
                                 return suppressed_[e].matched.empty();
                               }),
                entries.end());
  return entries;
}

StatusOr<IncrementalChase::Delta> IncrementalChase::ApplyFix(AtomId atom,
                                                             int arg,
                                                             TermId value) {
  KBREPAIR_CHECK(initialized_);
  KBREPAIR_CHECK(IsOriginal(atom));
  Delta delta;
  delta.modified = atom;

  chased_.SetArg(atom, arg, value);

  // --- Retract the cone of the fixed atom: every derived atom whose
  // provenance (transitively) used it.
  std::vector<AtomId> frontier;
  {
    const std::vector<AtomId>* kids = children_.Find(atom);
    if (kids != nullptr) frontier.assign(kids->begin(), kids->end());
  }
  std::vector<AtomId> cone;
  while (!frontier.empty()) {
    const AtomId id = frontier.back();
    frontier.pop_back();
    if (!chased_.alive(id)) continue;  // already collected via another path
    const std::vector<AtomId>* kids = children_.Find(id);
    if (kids != nullptr) {
      frontier.insert(frontier.end(), kids->begin(), kids->end());
    }
    RetractAtom(id);
    cone.push_back(id);
  }
  std::sort(cone.begin(), cone.end());
  delta.retracted = cone;

  // --- Collect suppressed triggers whose witness was retracted or
  // rewritten; they may be unblocked now.
  std::vector<size_t> revive = TakeSuppressedByWitness(atom);
  for (AtomId id : cone) {
    std::vector<size_t> more = TakeSuppressedByWitness(id);
    revive.insert(revive.end(), more.begin(), more.end());
  }
  std::sort(revive.begin(), revive.end());
  revive.erase(std::unique(revive.begin(), revive.end()), revive.end());
  // Canonical re-check order: (tgd index, matched atom ids). Matched ids
  // of original atoms are stable, so this matches the order in which a
  // from-scratch run would reach the competing triggers.
  std::sort(revive.begin(), revive.end(), [&](size_t a, size_t b) {
    const SuppressedTrigger& ta = suppressed_[a];
    const SuppressedTrigger& tb = suppressed_[b];
    if (ta.tgd_index != tb.tgd_index) return ta.tgd_index < tb.tgd_index;
    return ta.matched < tb.matched;
  });

  const size_t size_before = chased_.size();
  std::vector<AtomId> work;
  work.push_back(atom);

  HomomorphismFinder finder(symbols_, &chased_);
  std::vector<Atom> head_query;
  for (size_t entry_index : revive) {
    if (suppressed_[entry_index].matched.empty()) continue;  // killed
    SuppressedTrigger& entry = suppressed_.Mutable(entry_index);
    const Tgd& tgd = (*tgds_)[entry.tgd_index];
    // The body must still be alive and still match under the recorded
    // bindings (the fixed atom may have invalidated it).
    bool valid = true;
    for (size_t j = 0; valid && j < entry.matched.size(); ++j) {
      valid = chased_.alive(entry.matched[j]) &&
              SubstituteTerms(tgd.body()[j], entry.bindings) ==
                  chased_.atom(entry.matched[j]);
    }
    if (!valid) {
      entry.matched.clear();
      continue;
    }
    head_query.clear();
    for (const Atom& head_atom : tgd.head()) {
      head_query.push_back(SubstituteTerms(head_atom, entry.bindings));
    }
    std::optional<Homomorphism> witness = finder.FindFirst(head_query);
    if (witness.has_value()) {
      // Still blocked; re-register under the current witness.
      for (AtomId w : witness->matched) {
        suppressed_by_witness_.Mutable(w).push_back(entry_index);
      }
      continue;
    }
    // Unblocked: fire now. Move the entry out — firing may record new
    // suppressions, which can reallocate suppressed_.
    SuppressedTrigger fired = std::move(entry);
    entry.matched.clear();
    ++total_refired_;
    KBREPAIR_RETURN_IF_ERROR(FireTrigger(
        fired.tgd_index, fired.matched.data(), fired.matched.size(),
        fired.bindings.data(), fired.bindings.size(), &work));
  }

  KBREPAIR_RETURN_IF_ERROR(Saturate(std::move(work)));

  for (AtomId id = static_cast<AtomId>(size_before); id < chased_.size();
       ++id) {
    delta.added.push_back(id);
  }
  return delta;
}

std::vector<AtomId> IncrementalChase::OriginalSupport(
    const std::vector<AtomId>& ids) const {
  if (support_epoch_.size() < chased_.size()) {
    support_epoch_.resize(chased_.size(), 0);
  }
  if (support_epoch_counter_ == std::numeric_limits<uint32_t>::max()) {
    std::fill(support_epoch_.begin(), support_epoch_.end(), 0);
    support_epoch_counter_ = 0;
  }
  const uint32_t epoch = ++support_epoch_counter_;
  std::vector<AtomId>& frontier = support_frontier_;
  frontier.assign(ids.begin(), ids.end());
  std::vector<AtomId> support;
  while (!frontier.empty()) {
    const AtomId id = frontier.back();
    frontier.pop_back();
    if (support_epoch_[id] == epoch) continue;
    support_epoch_[id] = epoch;
    if (IsOriginal(id)) {
      support.push_back(id);
    } else {
      KBREPAIR_DCHECK(chased_.alive(id));
      const Derivation& d = derivations_[id - num_original_];
      frontier.insert(frontier.end(), d.parents.begin(), d.parents.end());
    }
  }
  std::sort(support.begin(), support.end());
  return support;
}

}  // namespace kbrepair
