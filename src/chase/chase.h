// The chase: saturating a fact base with weakly-acyclic TGDs.
//
// This is the restricted (a.k.a. standard) chase: a TGD trigger fires only
// if its head is not already satisfied by an extension of the trigger's
// frontier bindings, which — together with weak acyclicity — guarantees
// termination and keeps Cl(F) small. Existential head variables are
// instantiated with fresh labeled nulls from the shared symbol table.
//
// Two features beyond plain saturation serve the repair framework:
//
//  * Provenance. Every derived atom records its trigger (TGD index plus
//    the body-matched parent atoms), so a constraint violation detected on
//    the chased base can be traced back to the original facts that support
//    it. GENERATEQUESTION-CHASE (Section 5) asks its question on exactly
//    that support set.
//
//  * ⊥-detection. When CDDs are supplied, the engine checks each newly
//    available atom against the constraint bodies as it goes and can stop
//    at the first violation. This is the paper's CHECKCONSISTENCY-OPT:
//    "⊥ is seen as a unary predicate; if, during the chase, the constant ⊥
//    is produced then the knowledge base is inconsistent", which stops the
//    consistency check as early as possible.

#ifndef KBREPAIR_CHASE_CHASE_H_
#define KBREPAIR_CHASE_CHASE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "rules/cdd.h"
#include "rules/tgd.h"
#include "util/arena.h"
#include "util/cancel.h"
#include "util/status.h"

namespace kbrepair {

// A CDD-body homomorphism found during the chase: the violated CDD and,
// per body atom, the matched fact of the chased base.
struct ChaseViolation {
  size_t cdd_index = 0;
  std::vector<AtomId> matched;
};

// Trigger that produced a derived atom. The parent list lives in the
// arena of the chase generation that minted the derivation (ChaseResult
// or IncrementalChase), not in a per-derivation heap node.
struct Derivation {
  size_t tgd_index = 0;
  ArenaSpan<AtomId> parents;  // body-matched atoms, in body order
};

// The chased base Cl(F). Original atoms keep their ids [0, num_original);
// derived atoms follow.
class ChaseResult {
 public:
  const FactBase& facts() const { return facts_; }
  size_t num_original() const { return num_original_; }
  size_t num_derived() const { return facts_.size() - num_original_; }

  bool IsOriginal(AtomId id) const { return id < num_original_; }

  // Trigger of a derived atom. `id` must satisfy !IsOriginal(id).
  const Derivation& derivation(AtomId id) const;

  // The original atoms transitively supporting `id` (the atom itself when
  // original). Deduplicated, ascending. Reuses an epoch-stamped visited
  // bitmap across calls, so repeated support projections allocate
  // nothing; as a consequence concurrent calls on the same ChaseResult
  // are not safe (results are consumed single-threaded per session).
  std::vector<AtomId> OriginalSupport(AtomId id) const;

  // Union of OriginalSupport over several atoms. Deduplicated, ascending.
  std::vector<AtomId> OriginalSupport(const std::vector<AtomId>& ids) const;

  // First CDD violation, when the chase ran with constraints and found
  // one. Empty means no violation was detected (if constraints were
  // supplied and the chase completed, the KB is consistent).
  const std::optional<ChaseViolation>& violation() const {
    return violation_;
  }

 private:
  friend class ChaseEngine;

  FactBase facts_;
  size_t num_original_ = 0;
  std::vector<Derivation> derivations_;  // index: id - num_original_
  std::optional<ChaseViolation> violation_;
  // Owns every derivation's parent span. Shared so copies of the result
  // stay cheap and keep the spans alive.
  std::shared_ptr<Arena> arena_;

  // Scratch for OriginalSupport: atoms stamped with the current epoch
  // have been visited this traversal, so clearing between calls is a
  // counter bump instead of a fill.
  mutable std::vector<uint32_t> support_epoch_;
  mutable uint32_t support_epoch_counter_ = 0;
  mutable std::vector<AtomId> support_frontier_;
};

struct ChaseOptions {
  // Hard cap on the chased base size; exceeding it returns Internal.
  // A weakly-acyclic chase stays polynomial, so this is a safety valve
  // against misuse, not an expected limit.
  size_t max_atoms = 1000000;

  // When constraints are supplied: stop at the first violation (the
  // CHECKCONSISTENCY-OPT behaviour). When false, the full chase runs and
  // only the first violation encountered is recorded.
  bool stop_on_violation = true;

  // Cooperative cancellation: saturation loops poll this token and abort
  // with DeadlineExceeded once it expires. Shared by every chase-running
  // component built from the same options (finder, repairability checker,
  // delta engines), so one armed deadline bounds a whole engine command.
  std::shared_ptr<CancelToken> cancel;
};

// Runs the chase over `facts`. The symbol table is mutated (fresh nulls).
// `cdds` may be null for a pure saturation run.
class ChaseEngine {
 public:
  ChaseEngine(SymbolTable* symbols, const std::vector<Tgd>* tgds,
              const std::vector<Cdd>* cdds = nullptr,
              ChaseOptions options = {});

  // Chases `facts` to saturation (or first violation). The result owns
  // the chased base, so the input is taken by value: callers with a
  // throwaway base (a Π-skeleton, say) move it in and pay no copy.
  // The caller must have validated weak acyclicity; this function CHECKs
  // only the atom cap.
  StatusOr<ChaseResult> Run(FactBase facts) const;

 private:
  SymbolTable* symbols_;
  const std::vector<Tgd>* tgds_;
  const std::vector<Cdd>* cdds_;
  ChaseOptions options_;
};

// Convenience wrapper: Cl(F) without constraint checking.
StatusOr<ChaseResult> RunChase(const FactBase& facts,
                               const std::vector<Tgd>& tgds,
                               SymbolTable& symbols,
                               ChaseOptions options = {});

}  // namespace kbrepair

#endif  // KBREPAIR_CHASE_CHASE_H_
