// Delta chase: a long-lived chased base Cl(F) maintained across position
// fixes instead of being rebuilt from scratch after every answer.
//
// The scratch engine re-runs the restricted chase on the whole working
// base before every question — the dominant cost behind the paper's
// Fig. 5 per-question delay (Prop. 4.10). But a position fix (A, i, t)
// touches exactly one atom, and chase provenance tells us precisely which
// derived facts depended on it. IncrementalChase exploits that:
//
//   1. *Mirror* — the original atoms [0, num_original) of the maintained
//      base mirror the caller's working facts; ApplyFix first replays the
//      rewrite on the mirror.
//   2. *Retract* — every derived atom whose derivation (transitively)
//      used A is tombstoned (FactBase::Remove). Provenance suffices: a
//      derived atom's validity depends only on its parents' current
//      arguments, so atoms outside the cone of A keep valid derivations.
//   3. *Re-saturate* — the chase work queue is re-seeded with A (whose
//      new value may trigger rules) and with re-fired suppressed
//      triggers (below), and runs to fixpoint exactly like the full
//      chase.
//
// The restricted chase suppresses a trigger when its head is already
// satisfied. That check is non-monotone under retraction: a trigger
// blocked by a witness atom must fire once the witness disappears (or is
// rewritten). IncrementalChase therefore keeps a *suppressed-trigger
// ledger*: every time a trigger is blocked — by the head-satisfaction
// test or by the ground-duplicate test — the trigger and its witness
// atoms are recorded. When a fix retracts or rewrites a witness, the
// affected ledger entries are re-checked in a canonical order
// (tgd index, then matched atom ids): entries whose body no longer
// matches are dropped, entries still blocked are re-registered under
// their new witness, and the rest finally fire.
//
// Equivalence envelope (see DESIGN.md "Delta-chase invariants"): for TGD
// sets whose conflict-feeding rules are full (no existential variables) —
// the synthetic and Durum Wheat workloads — the maintained base is
// guaranteed to coincide with a from-scratch restricted chase of the
// current facts, up to renaming of labeled nulls and derived-atom ids,
// and in particular yields the same conflicts (cdd, original-support)
// census. With existential rules feeding conflicts, two valid restricted
// chases can disagree on which of several head-satisfying atoms exists;
// the maintained base is then still a correct restricted chase (sound and
// complete for consistency), but provenance may differ from a fresh run.
// The differential suite in tests/incremental_conflict_test.cc pins the
// envelope down.

#ifndef KBREPAIR_CHASE_INCREMENTAL_CHASE_H_
#define KBREPAIR_CHASE_INCREMENTAL_CHASE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chase/chase.h"
#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "rules/tgd.h"
#include "util/cow.h"
#include "util/status.h"

namespace kbrepair {

class IncrementalChase {
 public:
  // What one ApplyFix changed in the maintained base.
  struct Delta {
    AtomId modified = 0;            // the rewritten original atom
    std::vector<AtomId> retracted;  // tombstoned derived atoms, ascending
    std::vector<AtomId> added;      // new derived atoms, ascending
  };

  // `symbols` is mutated (fresh nulls); both pointers must outlive the
  // chase. `options.stop_on_violation` is ignored — the maintained base
  // is always fully saturated.
  IncrementalChase(SymbolTable* symbols, const std::vector<Tgd>* tgds,
                   ChaseOptions options = {});

  // Full chase of `facts`, which becomes the maintained base (taken by
  // value, as in ChaseEngine::Run). Resets all maintained state.
  Status Initialize(FactBase facts);

  // Flattens the maintained state (chased base, provenance, ledger) into
  // immutable shared segments so AdoptShared() forks are O(1). Call on a
  // fully saturated prototype that will never be mutated again.
  void FreezeShared();

  // Adopts the frozen maintained state of `frozen` — a prototype
  // saturated over the same rule set and a symbol-table ancestor of this
  // chase's table — instead of re-chasing. Equivalent to Initialize()
  // on the prototype's original facts, in O(delta)=O(1). The chase's own
  // symbols/tgds/options (from the constructor) are kept, so per-session
  // cancel tokens keep working.
  void AdoptShared(const IncrementalChase& frozen);

  bool initialized() const { return initialized_; }

  // The caller has applied (or is about to apply) the position fix
  // (atom, arg, value) to its own working base; replays it on the
  // mirror, retracts the cone of the fixed atom, re-checks suppressed
  // triggers and re-saturates. `atom` must be an original atom.
  // (Takes the raw triple rather than repair::Fix to keep chase/ below
  // repair/ in the layering.)
  StatusOr<Delta> ApplyFix(AtomId atom, int arg, TermId value);

  // The maintained chased base. Contains tombstoned atoms; check
  // facts().alive(id) before dereferencing scan-independent ids.
  const FactBase& facts() const { return chased_; }

  size_t num_original() const { return num_original_; }
  bool IsOriginal(AtomId id) const { return id < num_original_; }

  // The rule set the maintained base is saturated under.
  const std::vector<Tgd>* tgds() const { return tgds_; }

  // Original atoms transitively supporting `ids` through provenance.
  // Deduplicated, ascending. All ids must be alive. Reuses an
  // epoch-stamped visited bitmap across calls (allocation-free in steady
  // state), so concurrent calls on the same instance are not safe.
  std::vector<AtomId> OriginalSupport(const std::vector<AtomId>& ids) const;

  // Derivation of `id` in the maintained base, or nullptr when `id` is
  // original or tombstoned. The pointer is valid until the next
  // ApplyFix. Inspection API (kbrepair-debug renders provenance cones
  // from the maintained DAG without re-chasing).
  const Derivation* derivation_or_null(AtomId id) const {
    if (id < num_original_ || id >= chased_.size() || !chased_.alive(id)) {
      return nullptr;
    }
    return &derivations_[id - num_original_];
  }

  // Lifetime instrumentation (for the delta-chase microbench).
  size_t total_retracted() const { return total_retracted_; }
  size_t total_added() const { return total_added_; }
  size_t total_refired() const { return total_refired_; }
  size_t ledger_size() const { return suppressed_.size(); }

 private:
  // A trigger that was blocked — by head satisfaction or by a ground
  // duplicate — remembered so retraction of its witness can revive it.
  // Bindings are flat (ledger entries are revalidated with the same
  // linear-scan substitution the hot path uses).
  struct SuppressedTrigger {
    size_t tgd_index = 0;
    std::vector<AtomId> matched;  // body-matched atoms, body order;
                                  // empty marks a dead ledger entry
    std::vector<Binding> bindings;
  };

  // Fires a trigger (bindings complete for the frontier): instantiates
  // existentials with fresh nulls, adds non-duplicate head atoms with
  // provenance, enqueues them on `work`, and records suppressions for
  // duplicate head atoms. Returns non-OK only on the atom cap.
  Status FireTrigger(size_t tgd_index, const AtomId* matched,
                     size_t num_matched, const Binding* bindings,
                     size_t num_bindings, std::vector<AtomId>* work);

  // Records a suppressed trigger keyed under the given witness atoms.
  void RecordSuppressed(size_t tgd_index, std::vector<AtomId> matched,
                        std::vector<Binding> bindings,
                        const std::vector<AtomId>& witnesses);

  // Runs the wave-based chase loop until the work frontier empties,
  // evaluating TGD triggers anchored at each wave atom. Same wave
  // discipline as ChaseEngine::Run, so the maintained base and a
  // from-scratch run reach competing triggers in the same order.
  Status Saturate(std::vector<AtomId> work);

  // First alive atom equal to `atom`, or kInvalidAtom.
  AtomId FindAtom(const Atom& atom) const;

  // Marks derived atom `id` dead and detaches it from provenance maps.
  void RetractAtom(AtomId id);

  // Ledger entries currently keyed under `witness`, compacted.
  std::vector<size_t> TakeSuppressedByWitness(AtomId witness);

  SymbolTable* symbols_;
  const std::vector<Tgd>* tgds_;
  ChaseOptions options_;

  bool initialized_ = false;
  FactBase chased_;
  size_t num_original_ = 0;
  // Derivation of atom id (valid while alive); index id - num_original_.
  CowVector<Derivation> derivations_;
  // parent atom -> alive derived children (lazily pruned).
  CowMap<AtomId, std::vector<AtomId>> children_;
  // (rule body predicate) -> [(tgd index, body position)]. Immutable
  // after Initialize, shared between a frozen prototype and its forks.
  using AnchorIndex =
      std::unordered_map<int32_t, std::vector<std::pair<size_t, size_t>>>;
  std::shared_ptr<const AnchorIndex> anchor_index_;

  CowVector<SuppressedTrigger> suppressed_;
  CowMap<AtomId, std::vector<size_t>> suppressed_by_witness_;

  // Owns every Derivation's parent span minted by THIS chase.
  // Adopted/forked instances never mutate an ancestor's arena; they
  // retain the ancestors' arenas so shared derivation spans stay alive.
  std::shared_ptr<Arena> derivation_arena_;
  std::vector<std::shared_ptr<Arena>> retained_arenas_;

  // FireTrigger scratch (frontier bindings + fresh-null tail).
  std::vector<Binding> head_scratch_;

  // OriginalSupport scratch: epoch-stamped visited marks.
  mutable std::vector<uint32_t> support_epoch_;
  mutable uint32_t support_epoch_counter_ = 0;
  mutable std::vector<AtomId> support_frontier_;

  size_t total_retracted_ = 0;
  size_t total_added_ = 0;
  size_t total_refired_ = 0;
};

// Sentinel for FindAtom misses.
inline constexpr AtomId kInvalidAtom = static_cast<AtomId>(-1);

}  // namespace kbrepair

#endif  // KBREPAIR_CHASE_INCREMENTAL_CHASE_H_
