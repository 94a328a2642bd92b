#include "chase/chase.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kb/homomorphism.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/trace.h"

namespace kbrepair {

const Derivation& ChaseResult::derivation(AtomId id) const {
  KBREPAIR_CHECK(!IsOriginal(id));
  return derivations_[id - num_original_];
}

std::vector<AtomId> ChaseResult::OriginalSupport(AtomId id) const {
  return OriginalSupport(std::vector<AtomId>{id});
}

std::vector<AtomId> ChaseResult::OriginalSupport(
    const std::vector<AtomId>& ids) const {
  if (support_epoch_.size() < facts_.size()) {
    support_epoch_.resize(facts_.size(), 0);
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
      const Derivation& d = derivation(id);
      frontier.insert(frontier.end(), d.parents.begin(), d.parents.end());
    }
  }
  std::sort(support.begin(), support.end());
  return support;
}

ChaseEngine::ChaseEngine(SymbolTable* symbols, const std::vector<Tgd>* tgds,
                         const std::vector<Cdd>* cdds, ChaseOptions options)
    : symbols_(symbols), tgds_(tgds), cdds_(cdds), options_(options) {
  KBREPAIR_CHECK(symbols != nullptr);
  KBREPAIR_CHECK(tgds != nullptr);
}

namespace {

// Both engines (this one and IncrementalChase) saturate in *waves*; a
// wave is the snapshot of the current work queue:
//
//   Phase A (read-only): for every wave atom, in wave order, enumerate
//   the TGD triggers (and, here, the first CDD violation) anchored at it
//   against the wave-start fact base. Trigger spans go into a scratch
//   arena that is reset once the wave has been fired.
//
//   Phase B: fire (or, in IncrementalChase, suppress) each pending
//   trigger in Phase A order against the live base. Atoms are added and
//   fresh nulls minted only here, so this order fixes atom ids, null
//   names and provenance, and both engines reach competing triggers in
//   the same order.
//
// Completeness: a trigger (or violation) whose body uses an atom added
// during the current wave's Phase B is invisible to that wave's
// snapshot, but the new atom joins the next wave, where the enumeration
// anchored at it finds the homomorphism. This is the usual semi-naive
// argument: every homomorphism has a last-arriving atom, and it is found
// when that atom's wave runs.
struct PendingTrigger {
  size_t tgd_index = 0;
  ArenaSpan<AtomId> matched;    // body-matched atoms, body order
  ArenaSpan<Binding> bindings;  // frontier bindings, flat
};

}  // namespace

StatusOr<ChaseResult> ChaseEngine::Run(FactBase facts) const {
  trace::ScopedSpan span("chase.saturate", trace::Phase::kChase);
  KBREPAIR_FAILPOINT("chase.saturate",
                     Status::Internal("injected chase saturation fault"));
  if (options_.cancel != nullptr) {
    KBREPAIR_RETURN_IF_ERROR(options_.cancel->Check("chase"));
  }
  ChaseResult result;
  result.num_original_ = facts.size();
  result.facts_ = std::move(facts);
  result.arena_ = std::make_shared<Arena>();

  // Index rules and constraints by body-atom predicate for anchored
  // (semi-naive) evaluation: predicate -> [(rule index, body position)].
  std::unordered_map<int32_t, std::vector<std::pair<size_t, size_t>>>
      tgd_anchor_index;
  for (size_t r = 0; r < tgds_->size(); ++r) {
    const std::vector<Atom>& body = (*tgds_)[r].body();
    for (size_t j = 0; j < body.size(); ++j) {
      tgd_anchor_index[body[j].predicate].emplace_back(r, j);
    }
  }
  std::unordered_map<int32_t, std::vector<std::pair<size_t, size_t>>>
      cdd_anchor_index;
  if (cdds_ != nullptr) {
    for (size_t c = 0; c < cdds_->size(); ++c) {
      const std::vector<Atom>& body = (*cdds_)[c].body();
      for (size_t j = 0; j < body.size(); ++j) {
        cdd_anchor_index[body[j].predicate].emplace_back(c, j);
      }
    }
  }

  // Seed with the alive atoms only: an input base may carry tombstones
  // (forked sessions retract), and a dead atom must neither anchor
  // triggers nor witness violations.
  std::vector<AtomId> wave;
  wave.reserve(result.facts_.size());
  for (AtomId id = 0; id < result.facts_.size(); ++id) {
    if (result.facts_.alive(id)) wave.push_back(id);
  }

  HomomorphismFinder finder(symbols_, &result.facts_);
  Arena scratch;  // Phase A trigger spans; reset after every wave
  std::vector<PendingTrigger> pending;
  std::vector<AtomId> next;
  std::vector<Atom> head_query;
  std::vector<Binding> head_bindings;
  size_t steps = 0;

  while (!wave.empty()) {
    if (options_.cancel != nullptr) {
      KBREPAIR_RETURN_IF_ERROR(options_.cancel->Check("chase"));
    }

    // --- Phase A: enumerate triggers, and the wave's first CDD
    // violation, against the wave-start snapshot.
    pending.clear();
    std::optional<ChaseViolation> violation;
    const bool check_cdds =
        cdds_ != nullptr && !result.violation_.has_value();
    for (const AtomId current : wave) {
      const PredicateId pred = result.facts_.atom(current).predicate;

      // ⊥-detection: does a CDD body have a homomorphism using the
      // current atom? (CHECKCONSISTENCY-OPT.)
      if (check_cdds && !violation.has_value()) {
        auto it = cdd_anchor_index.find(pred);
        if (it != cdd_anchor_index.end()) {
          for (const auto& [cdd_index, body_pos] : it->second) {
            finder.FindAllPinnedViews(
                (*cdds_)[cdd_index].body(), body_pos, current,
                [&, cdd_index = cdd_index](const HomomorphismView& view) {
                  violation.emplace();
                  violation->cdd_index = cdd_index;
                  violation->matched.assign(view.matched,
                                            view.matched + view.num_matched);
                  return false;  // the first violation suffices
                });
            if (violation.has_value()) break;
          }
        }
      }

      // Stopping at a violation fires only the triggers anchored at the
      // atoms before it, as if the wave had halted there.
      if (violation.has_value() && options_.stop_on_violation) break;

      // TGD triggers anchored at the current atom.
      auto it = tgd_anchor_index.find(pred);
      if (it == tgd_anchor_index.end()) continue;
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

    // --- Phase B: fire in Phase A order. All mutation (restricted test,
    // fresh nulls, atom insertion) happens here.
    next.clear();
    for (const PendingTrigger& trigger : pending) {
      if (options_.cancel != nullptr && (++steps & 63) == 0) {
        KBREPAIR_RETURN_IF_ERROR(options_.cancel->Check("chase"));
      }
      const Tgd& tgd = (*tgds_)[trigger.tgd_index];
      // Restricted-chase test against the LIVE base: skip if the head is
      // already satisfied under the trigger's frontier bindings
      // (existentials free) — including by atoms fired earlier this wave.
      head_query.clear();
      for (const Atom& head_atom : tgd.head()) {
        head_query.push_back(SubstituteTerms(head_atom, trigger.bindings.ptr,
                                             trigger.bindings.len));
      }
      if (finder.Exists(head_query)) continue;

      // Fire: instantiate existential variables with fresh nulls.
      head_bindings.assign(trigger.bindings.begin(), trigger.bindings.end());
      const size_t num_frontier = head_bindings.size();
      for (TermId var : tgd.existential_variables()) {
        head_bindings.push_back(Binding{var, symbols_->MakeFreshNull()});
      }
      for (const Atom& head_atom : tgd.head()) {
        const Atom instance = SubstituteTerms(head_atom, head_bindings.data(),
                                              head_bindings.size());
        // Avoid duplicating a ground atom that already exists. Atoms
        // carrying fresh nulls are new by construction.
        bool has_fresh_null = false;
        for (TermId arg : instance.args) {
          for (size_t k = num_frontier; k < head_bindings.size(); ++k) {
            has_fresh_null = has_fresh_null || head_bindings[k].term == arg;
          }
        }
        if (!has_fresh_null && result.facts_.Contains(instance)) continue;
        if (result.facts_.size() >= options_.max_atoms) {
          return Status::Internal(
              "chase exceeded max_atoms; TGD set likely not weakly acyclic "
              "or cap too low");
        }
        const AtomId new_id = result.facts_.Add(instance);
        Derivation derivation;
        derivation.tgd_index = trigger.tgd_index;
        derivation.parents =
            result.arena_->Copy(trigger.matched.ptr, trigger.matched.len);
        result.derivations_.push_back(derivation);
        next.push_back(new_id);
      }
    }
    if (violation.has_value()) {
      result.violation_ = std::move(violation);
      if (options_.stop_on_violation) return result;
    }

    scratch.Reset();
    wave.swap(next);
  }
  return result;
}

StatusOr<ChaseResult> RunChase(const FactBase& facts,
                               const std::vector<Tgd>& tgds,
                               SymbolTable& symbols, ChaseOptions options) {
  ChaseEngine engine(&symbols, &tgds, nullptr, options);
  return engine.Run(facts);
}

}  // namespace kbrepair
