// Π-repairability (Definition 3.6, Algorithm 1) and its optimized
// per-fix variant Π-REPOPT (Section 5).
//
// K is Π-repairable iff some r-fix avoids all positions in Π. Algorithm 1
// decides this by building the *Π-skeleton*: a copy of F where every
// position outside Π is replaced by a fresh labeled null unique to that
// position. The skeleton is the "most repaired" KB compatible with
// freezing Π, so K is Π-repairable iff the skeleton is consistent.
//
// Π-REPOPT exploits two observations (both proved in the file comments of
// repairability.cc):
//  * a candidate fix whose value is fresh — a brand-new null, or any term
//    that appears neither at a Π position nor as a constant inside a rule
//    — behaves exactly like the skeleton's own null, so Π-repairability
//    is preserved for free;
//  * if the current skeleton is already inconsistent, no single fix can
//    make it consistent (nulls are the least-constraining values), so
//    every candidate fails.
// Only value-colliding candidates pay for a full skeleton consistency
// check, and the skeleton is built once per question, not once per fix.

#ifndef KBREPAIR_REPAIR_REPAIRABILITY_H_
#define KBREPAIR_REPAIR_REPAIRABILITY_H_

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chase/chase.h"
#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "repair/consistency.h"
#include "repair/fix.h"
#include "rules/cdd.h"
#include "rules/tgd.h"
#include "util/status.h"

namespace kbrepair {

class RepairabilityChecker {
 public:
  // Pointed-to objects must outlive the checker; `symbols` is mutated
  // (scratch nulls and chase nulls).
  RepairabilityChecker(SymbolTable* symbols, const std::vector<Tgd>* tgds,
                       const std::vector<Cdd>* cdds,
                       ChaseOptions chase_options = {});

  // Algorithm 1, Π-REP(K, Π): true iff K is Π-repairable.
  StatusOr<bool> IsPiRepairable(const FactBase& facts,
                                const PositionSet& pi) const;

  // Builds the Π-skeleton of `facts`: non-Π positions become pairwise
  // distinct scratch nulls. Scratch nulls are assigned by *flat position
  // index* (atom-major, argument-minor), so the null standing in for a
  // given position is stable across skeleton builds no matter how Π has
  // grown — which is what lets an incrementally maintained skeleton
  // (inquiry.cc) replay Π changes as position rewrites. Each atom is
  // added with its arguments already substituted, so atom ids and
  // tombstones match `facts`.
  FactBase BuildSkeleton(const FactBase& facts, const PositionSet& pi) const;

  // The stable scratch null standing in for `p` in any skeleton of
  // `facts` (see BuildSkeleton).
  TermId SkeletonNullFor(const FactBase& facts, const Position& p) const;

  // Per-question scratch implementing Π-REPOPT. Construct once per
  // question over the *current* (facts, Π); then each candidate fix is
  // tested with FixKeepsRepairable.
  class Scope {
   public:
    // With `known_base_consistent` the caller vouches for the skeleton's
    // consistency verdict (e.g. from a maintained skeleton census) and
    // the Scope skips its own skeleton chase; the skeleton is then only
    // materialized if a full per-fix check needs it.
    Scope(const RepairabilityChecker* checker, const FactBase& facts,
          const PositionSet& pi,
          std::optional<bool> known_base_consistent = std::nullopt);

    // True iff the base skeleton is consistent, i.e., K is Π-repairable.
    // When false, every FixKeepsRepairable call answers false.
    bool BaseRepairable() const { return base_consistent_; }

    // Does apply(F, {fix}) stay (Π ∪ {pos(fix)})-repairable? The fix's
    // position must not be in Π.
    StatusOr<bool> FixKeepsRepairable(const Fix& fix);

    // Instrumentation for the ablation benchmark.
    size_t num_fast_paths() const { return num_fast_paths_; }
    size_t num_full_checks() const { return num_full_checks_; }

   private:
    // Builds skeleton_ on demand (immediately when the Scope must chase
    // it itself; lazily, for full checks only, when the verdict was
    // supplied by the caller).
    void EnsureSkeleton();

    // Occurrences of `value` at Π positions — identical to the
    // skeleton's term-use count for any candidate value, since every
    // non-Π skeleton position holds an anonymous scratch null no
    // interned term can equal.
    size_t PiUseCount(TermId value) const;

    const RepairabilityChecker* checker_;
    const FactBase* facts_;
    const PositionSet* pi_;
    FactBase skeleton_;
    bool skeleton_built_ = false;
    std::unordered_map<TermId, size_t> pi_value_counts_;
    bool base_consistent_ = false;
    size_t num_fast_paths_ = 0;
    size_t num_full_checks_ = 0;
  };

 private:
  friend class Scope;

  SymbolTable* symbols_;
  const std::vector<Tgd>* tgds_;
  const std::vector<Cdd>* cdds_;
  ChaseOptions chase_options_;
  // Constants mentioned inside rule/constraint bodies or heads; a value
  // colliding with one of these can trigger a constraint even if no
  // other fact carries it.
  std::unordered_set<TermId> rule_constants_;
};

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_REPAIRABILITY_H_
