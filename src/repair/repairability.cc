#include "repair/repairability.h"

#include "util/logging.h"
#include "util/trace.h"

namespace kbrepair {

// Soundness notes.
//
// (1) Fresh-value fast path. Let S be the Π-skeleton and S[p:=v] the
// skeleton with candidate value v at position p. If v occurs nowhere else
// in S (it is not a Π-position value) and v is not a constant of any rule
// or constraint, then the structure map that renames v to p's own scratch
// null is an isomorphism between S[p:=v] and S that every TGD/CDD body
// respects: join variables need equal values at two positions (v occurs
// at exactly one), and body constants never equal v. Hence S[p:=v] is
// consistent iff S is — which is the Scope's precondition check.
//
// (2) Inconsistent-base short-circuit. Homomorphisms into S embed into
// S[p:=v] for any v: the scratch null at p is unique, so no CDD/TGD body
// atom can be *forced* to match through it except via lone variables,
// which match v just as well. So if S is inconsistent, so is S[p:=v] for
// every candidate v, and every fix fails the Π-REPOPT test.

RepairabilityChecker::RepairabilityChecker(SymbolTable* symbols,
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
  auto collect_constants = [this](const std::vector<Atom>& atoms) {
    for (const Atom& atom : atoms) {
      for (TermId term : atom.args) {
        if (symbols_->IsConstant(term)) rule_constants_.insert(term);
      }
    }
  };
  for (const Tgd& tgd : *tgds) {
    collect_constants(tgd.body());
    collect_constants(tgd.head());
  }
  for (const Cdd& cdd : *cdds) collect_constants(cdd.body());
}

FactBase RepairabilityChecker::BuildSkeleton(const FactBase& facts,
                                             const PositionSet& pi) const {
  FactBase skeleton;
  Atom substituted;
  size_t flat = 0;  // flat position index; advances over Π positions too
  for (AtomId id = 0; id < facts.size(); ++id) {
    const Atom& atom = facts.atom(id);
    substituted.predicate = atom.predicate;
    substituted.args.assign(atom.args.begin(), atom.args.end());
    for (int arg = 0; arg < atom.arity(); ++arg, ++flat) {
      if (pi.count(Position{id, arg}) == 0) {
        substituted.args[static_cast<size_t>(arg)] =
            symbols_->ScratchNull(flat);
      }
    }
    skeleton.Add(substituted);
    if (!facts.alive(id)) skeleton.Remove(id);
  }
  return skeleton;
}

TermId RepairabilityChecker::SkeletonNullFor(const FactBase& facts,
                                             const Position& p) const {
  size_t flat = 0;
  for (AtomId id = 0; id < p.atom; ++id) {
    flat += static_cast<size_t>(facts.atom(id).arity());
  }
  return symbols_->ScratchNull(flat + static_cast<size_t>(p.arg));
}

StatusOr<bool> RepairabilityChecker::IsPiRepairable(
    const FactBase& facts, const PositionSet& pi) const {
  trace::ScopedSpan span("repair.repairability", trace::Phase::kRepairability);
  ConsistencyChecker checker(symbols_, tgds_, cdds_, chase_options_);
  return checker.IsConsistentOpt(BuildSkeleton(facts, pi));
}

RepairabilityChecker::Scope::Scope(const RepairabilityChecker* checker,
                                   const FactBase& facts,
                                   const PositionSet& pi,
                                   std::optional<bool> known_base_consistent)
    : checker_(checker), facts_(&facts), pi_(&pi) {
  KBREPAIR_CHECK(checker != nullptr);
  for (const Position& position : pi) {
    if (position.atom < facts.size() &&
        position.arg < facts.atom(position.atom).arity()) {
      ++pi_value_counts_[facts.atom(position.atom)
                             .args[static_cast<size_t>(position.arg)]];
    }
  }
  if (known_base_consistent.has_value()) {
    // The caller maintains the skeleton census incrementally; trust its
    // verdict and defer materializing the skeleton until a full per-fix
    // check needs one.
    base_consistent_ = *known_base_consistent;
    return;
  }
  EnsureSkeleton();
  ConsistencyChecker consistency(checker->symbols_, checker->tgds_,
                                 checker->cdds_, checker->chase_options_);
  StatusOr<bool> consistent = consistency.IsConsistentOpt(skeleton_);
  // A chase failure here means the cap was exceeded; treat the scope as
  // unrepairable rather than crashing (questions will come out empty and
  // the engine will surface an error).
  base_consistent_ = consistent.ok() && consistent.value();
}

void RepairabilityChecker::Scope::EnsureSkeleton() {
  if (skeleton_built_) return;
  skeleton_ = checker_->BuildSkeleton(*facts_, *pi_);
  skeleton_built_ = true;
}

size_t RepairabilityChecker::Scope::PiUseCount(TermId value) const {
  auto it = pi_value_counts_.find(value);
  return it == pi_value_counts_.end() ? 0 : it->second;
}

StatusOr<bool> RepairabilityChecker::Scope::FixKeepsRepairable(
    const Fix& fix) {
  if (!base_consistent_) return false;  // short-circuit (2) above

  const SymbolTable& symbols = *checker_->symbols_;
  const TermId value = fix.value;
  // Candidate values are interned terms, which never equal the
  // skeleton's anonymous scratch nulls, so occurrences at Π positions
  // are exactly the skeleton's use count.
  const bool is_fresh_null = symbols.IsNull(value) && PiUseCount(value) == 0;
  const bool is_fresh_value = PiUseCount(value) == 0 &&
                              checker_->rule_constants_.count(value) == 0 &&
                              !symbols.IsVariable(value);
  if (is_fresh_null || is_fresh_value) {
    ++num_fast_paths_;
    return true;  // fast path (1) above
  }

  ++num_full_checks_;
  EnsureSkeleton();
  const TermId saved =
      skeleton_.atom(fix.atom).args[static_cast<size_t>(fix.arg)];
  skeleton_.SetArg(fix.atom, fix.arg, value);
  ConsistencyChecker consistency(checker_->symbols_, checker_->tgds_,
                                 checker_->cdds_,
                                 checker_->chase_options_);
  StatusOr<bool> consistent = consistency.IsConsistentOpt(skeleton_);
  skeleton_.SetArg(fix.atom, fix.arg, saved);
  if (!consistent.ok()) return consistent.status();
  return consistent.value();
}

}  // namespace kbrepair
