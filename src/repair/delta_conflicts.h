// Index-anchored conflict maintenance over a maintained chased base — the
// chased-case extension of ConflictTracker's UPDATECONFLICTS.
//
// ConflictTracker (conflict.h) keeps the *naive* conflicts incremental:
// after a fix it re-evaluates only CDDs related to the touched predicate,
// anchored at the modified atom. That stops at the fact base: conflicts
// that only surface through the chase are recomputed from scratch every
// round (ConflictFinder::AllConflicts). DeltaConflictEngine closes the
// gap. It owns an IncrementalChase whose maintained base mirrors the
// working facts; after a fix it
//
//   1. replays the fix on the chase (retract cone / re-saturate),
//   2. drops every live conflict whose homomorphism used the modified
//      atom or a retracted atom (found through a matched-atom index, not
//      a scan), and
//   3. re-enumerates CDD bodies pinned at each changed atom — the
//      modified atom plus every newly derived one — via the
//      (predicate -> [(cdd, body position)]) anchor index, so only CDDs
//      whose bodies mention a touched predicate are evaluated at all.
//
// Dedup across anchors: a homomorphism using several changed atoms is
// kept only when enumerated at its minimal changed atom, pinned at the
// first body position mapping to it — the chased-base analogue of
// NaiveConflictsTouching's pin-first rule. A re-found homomorphism cannot
// coincide with a live conflict: it uses a changed atom, and every live
// conflict using one was dropped in step 2 (newly derived ids are fresh).
//
// Cross-engine determinism. Derived-atom ids differ between a maintained
// base and a from-scratch chase, and so does raw enumeration order. Both
// engines therefore order conflicts by CanonicalConflictKey — the
// engine-independent identity (cdd, matched pattern with derived ids
// collapsed to a sentinel, original support) — before any RNG-consuming
// selection. Conflicts tying on the full key are interchangeable for
// question generation, which consumes nothing beyond the key.

#ifndef KBREPAIR_REPAIR_DELTA_CONFLICTS_H_
#define KBREPAIR_REPAIR_DELTA_CONFLICTS_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chase/incremental_chase.h"
#include "chase/support.h"
#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "repair/conflict.h"
#include "rules/cdd.h"
#include "rules/tgd.h"
#include "util/status.h"

namespace kbrepair {

// Engine-independent total preorder on conflicts: (cdd index, matched
// with every derived id replaced by a sentinel, support). `num_original`
// is the working fact-base size; ids >= num_original are chase-derived.
bool CanonicalConflictLess(const Conflict& a, const Conflict& b,
                           size_t num_original);

// Sorts `conflicts` by CanonicalConflictLess. Both the scratch and the
// incremental engine run their chased conflict sets through this before
// selection, which is what makes their dialogues comparable per-seed.
void CanonicalizeConflicts(std::vector<Conflict>& conflicts,
                           size_t num_original);

class DeltaConflictEngine {
 public:
  // All pointers must outlive the engine; `symbols` is mutated (fresh
  // nulls minted by the underlying chase).
  DeltaConflictEngine(SymbolTable* symbols, const std::vector<Tgd>* tgds,
                      const std::vector<Cdd>* cdds,
                      ChaseOptions chase_options = {});

  // Chases `facts` (taken by value; see IncrementalChase::Initialize)
  // and takes the full conflict census. Resets all maintained state.
  Status Initialize(FactBase facts);

  // Flattens the maintained chase into immutable shared segments so
  // InitializeFromShared() forks are O(census) instead of O(chase).
  // Call once on a fully initialized prototype never mutated again.
  void FreezeShared() { chase_.FreezeShared(); }

  // Initialize() by adoption: takes the frozen prototype's chased base
  // and conflict census instead of re-chasing and re-scanning. The
  // prototype must have been built over the same facts and rule vectors
  // this engine was constructed against (its symbol table an ancestor of
  // this engine's); the engine's own constructor-time symbols/options —
  // per-session cancel tokens in particular — stay in effect.
  Status InitializeFromShared(const DeltaConflictEngine& frozen);

  bool initialized() const { return chase_.initialized(); }

  // The caller has applied the position fix (atom, arg, value) to its
  // working base; replays it here and maintains the conflict set.
  Status OnFixApplied(AtomId atom, int arg, TermId value);

  bool empty() const { return conflicts_.empty(); }
  size_t size() const { return conflicts_.size(); }

  // Live conflicts in canonical order. Matched ids refer to the
  // maintained base (chase().facts()); supports are original atoms.
  // Subject to the `delta.census_drop` failpoint (drops the last
  // canonical conflict when armed — the diff-engines fault drill).
  std::vector<Conflict> CanonicalConflicts() const;

  // Live conflicts (canonical order) whose original-atom support
  // contains `atom`. Inspection accessor for kbrepair-debug's
  // conflict-membership views; linear in the census.
  std::vector<Conflict> ConflictsUsingSupport(AtomId atom) const;

  // Structural self-check, run after every OnFixApplied: each live
  // conflict must match only alive atoms of the maintained base and
  // carry a non-empty original-atom support, and the matched index must
  // mirror the conflict map. Internal on violation — the inquiry engine
  // treats that as divergence and falls back to the scratch engine
  // rather than trusting a corrupt census.
  Status VerifyInvariants() const;

  const IncrementalChase& chase() const { return chase_; }

 private:
  // Enumerates CDD bodies pinned at each anchor (ascending ids) and adds
  // the surviving homomorphisms. `anchors` must be sorted ascending.
  void AddConflictsAnchoredAt(const std::vector<AtomId>& anchors,
                              CanonicalSupportResolver& support);

  // Re-resolves the support of live conflicts whose homomorphism
  // involves a derived atom that a changed atom could prove. Canonical
  // support is a function of the whole base, so a fix can change the
  // minimal proof of an atom whose conflicts survived the drop step
  // untouched — but only if the changed atom's predicate reaches the
  // derived atom's predicate in the TGD body->head graph; every atom in
  // any proof tree of a has a predicate in contributors_[pred(a)], so
  // conflicts outside that cone keep their supports verbatim.
  void RefreshDerivedSupports(const std::unordered_set<int32_t>& changed_preds,
                              CanonicalSupportResolver& support);

  void AddConflict(Conflict conflict);
  void DropConflictsMatching(AtomId atom);

  IncrementalChase chase_;
  SymbolTable* symbols_;
  const std::vector<Cdd>* cdds_;

  // CDD-body predicate -> [(cdd index, body position)].
  std::unordered_map<int32_t, std::vector<std::pair<size_t, size_t>>>
      cdd_anchor_index_;

  // Derived predicate -> predicates that can transitively contribute to
  // its derivations (reflexive-transitive closure of the TGD body->head
  // predicate edges, restricted to predicates that occur in TGD heads).
  std::unordered_map<int32_t, std::unordered_set<int32_t>> contributors_;

  std::unordered_map<uint64_t, Conflict> conflicts_;
  // Matched chased-base atom -> live conflict ids using it.
  std::unordered_map<AtomId, std::unordered_set<uint64_t>> by_matched_;
  uint64_t next_id_ = 0;
};

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_DELTA_CONFLICTS_H_
