// Conflicts (Definition 2.3) and their maintenance.
//
// A conflict is a pair (N, h): a CDD N and a homomorphism h of body(N)
// into the chased base Cl(F). A *naive* conflict (Section 5) is one whose
// homomorphism lands entirely inside F itself, i.e., it is visible without
// chasing. Every conflict carries its *support*: the original fact-base
// atoms that (transitively, through chase provenance) ground it; for naive
// conflicts the support is just the matched atoms.
//
// ConflictTracker implements UPDATECONFLICTS: it keeps the set of naive
// conflicts up to date across position fixes by removing the conflicts
// touching the modified atom and re-evaluating only the CDDs related to
// that atom, anchored at it — instead of recomputing everything.
// It also maintains per-position conflict membership, which is the
// conflict-hypergraph degree used by the opti-mcd strategy.

#ifndef KBREPAIR_REPAIR_CONFLICT_H_
#define KBREPAIR_REPAIR_CONFLICT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chase/chase.h"
#include "kb/fact_base.h"
#include "kb/homomorphism.h"
#include "kb/symbol_table.h"
#include "repair/fix.h"
#include "rules/cdd.h"
#include "rules/tgd.h"
#include "util/status.h"

namespace kbrepair {

struct Conflict {
  size_t cdd_index = 0;
  // Per body atom (body order), the matched atom of the evaluated base
  // (F for naive conflicts, Cl(F) otherwise).
  std::vector<AtomId> matched;
  // Original fact-base atoms supporting the conflict, deduplicated,
  // ascending. For naive conflicts: the distinct matched atoms.
  std::vector<AtomId> support;

  // A canonical identity key: two conflicts with equal (cdd, matched) are
  // the same homomorphism.
  bool SameAs(const Conflict& other) const {
    return cdd_index == other.cdd_index && matched == other.matched;
  }
};

// Enumeration of conflicts.
class ConflictFinder {
 public:
  ConflictFinder(SymbolTable* symbols, const std::vector<Tgd>* tgds,
                 const std::vector<Cdd>* cdds,
                 ChaseOptions chase_options = {});

  // allconflicts(K): all CDD-body homomorphisms into Cl(F), with original
  // support computed through chase provenance.
  StatusOr<std::vector<Conflict>> AllConflicts(const FactBase& facts) const;

  // allconflicts_naive(K): CDD bodies evaluated directly on F.
  std::vector<Conflict> NaiveConflicts(const FactBase& facts) const;

  // Naive conflicts whose homomorphism uses atom `anchor` (for
  // UPDATECONFLICTS). Only CDDs with a body atom of the anchor's
  // predicate are evaluated, pinned to the anchor.
  std::vector<Conflict> NaiveConflictsTouching(const FactBase& facts,
                                               AtomId anchor) const;

 private:
  SymbolTable* symbols_;
  const std::vector<Tgd>* tgds_;
  const std::vector<Cdd>* cdds_;
  ChaseOptions chase_options_;
};

// Structure indicators reported in the paper's experiment tables.
struct OverlapIndicators {
  // Average number of atoms in each non-empty pairwise intersection of
  // conflict supports ("Avg # atoms per overlap").
  double avg_atoms_per_overlap = 0.0;
  // Average, over conflicts, of the number of other conflicts whose
  // support intersects this one's ("Avg scope").
  double avg_scope = 0.0;
  // Number of distinct atoms involved in at least one conflict (the
  // numerator of the paper's inconsistency ratio).
  size_t atoms_in_conflicts = 0;
};

OverlapIndicators ComputeOverlapIndicators(
    const std::vector<Conflict>& conflicts);

// Human-readable explanation of one conflict: the violated CDD, the
// facts its body matched (marking chase-derived atoms), and the original
// support set — what a data steward needs to understand a question.
// `chased` may be null; it is required to render derived matched atoms
// (matched ids >= facts.size()), which are otherwise labelled opaquely.
std::string ExplainConflict(const Conflict& conflict,
                            const std::vector<Cdd>& cdds,
                            const FactBase& facts,
                            const SymbolTable& symbols,
                            const ChaseResult* chased = nullptr);

// GraphViz DOT rendering of the conflict hypergraph: one box per
// conflict, one ellipse per involved atom, an edge when the atom
// supports the conflict. Feed to `dot -Tsvg` to see the overlap
// structure the opti-mcd strategy exploits.
std::string ConflictHypergraphToDot(const std::vector<Conflict>& conflicts,
                                    const FactBase& facts,
                                    const SymbolTable& symbols);

// Incremental *naive*-conflict maintenance (UPDATECONFLICTS in
// Section 5) — the phase-one engine. It never chases: conflicts whose
// homomorphisms pass through derived atoms are invisible to it by
// design, and phase two handles them (scratch re-enumeration or the
// maintained DeltaConflictEngine of repair/delta_conflicts.h, selected
// by InquiryOptions::conflict_engine).
class ConflictTracker {
 public:
  // The finder (and the structures it points to) must outlive the
  // tracker.
  explicit ConflictTracker(const ConflictFinder* finder);

  // Computes the initial naive conflicts of `facts`.
  void Initialize(const FactBase& facts);

  // Initialize() from a precomputed census (Begin's own scan, or the
  // shared-base fork path): adds `census` in order, so a census from
  // NaiveConflicts on the same facts yields exactly Initialize()'s state.
  void InitializeFromCensus(std::vector<Conflict> census);

  // Notifies that some position of `atom` in `facts` was already
  // rewritten (which position does not matter: conflicts are indexed by
  // supporting atom). Drops the conflicts whose support contains `atom`
  // and re-evaluates only the CDDs related to it, anchored at it. Debug
  // builds assert the re-found conflicts never duplicate (SameAs) a
  // surviving one.
  void OnFixApplied(const FactBase& facts, AtomId atom);

  bool empty() const { return conflicts_.empty(); }
  size_t size() const { return conflicts_.size(); }

  // Live conflicts keyed by stable ids.
  const std::unordered_map<uint64_t, Conflict>& conflicts() const {
    return conflicts_;
  }

  // Live conflicts in canonical order (CanonicalizeConflicts over the
  // tracked set). `num_original` is the working fact-base size — the
  // tracker holds naive conflicts, so every id is original and any value
  // >= the base size works. Inspection accessor for kbrepair-debug's
  // phase-one census views.
  std::vector<Conflict> CanonicalConflicts(size_t num_original) const;

  // Ids of conflicts whose support contains `atom` (empty set if none).
  std::vector<uint64_t> ConflictsTouching(AtomId atom) const;

  // Number of live conflicts whose support contains `atom`.
  size_t NumConflictsTouching(AtomId atom) const;

  // The conflict-hypergraph degree of a position: the number of live
  // conflicts whose support contains the position's atom. (Positions of
  // one atom share the degree of the atom; the opti-mcd strategy ranks
  // only resolving positions, so this is the rank it consumes.)
  size_t PositionRank(const Position& position) const {
    return NumConflictsTouching(position.atom);
  }

 private:
  void AddConflict(Conflict conflict);
  void RemoveConflict(uint64_t id);

  const ConflictFinder* finder_;
  std::unordered_map<uint64_t, Conflict> conflicts_;
  std::unordered_map<AtomId, std::unordered_set<uint64_t>> by_atom_;
  uint64_t next_id_ = 0;
};

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_CONFLICT_H_
