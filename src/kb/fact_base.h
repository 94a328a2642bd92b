// FactBase: the identity-tracked, indexed set of facts F.
//
// Atoms get stable ids (AtomId) on insertion and are never removed;
// update-based repairing only ever rewrites argument positions in place
// (SetArg), which preserves the paper's invariants |F| = |apply(F,P)| and
// pos(F) = pos(apply(F,P)), and makes the one-to-one correspondence
// match() of Definition 3.3 the identity on atom ids.
//
// Two index families are maintained under mutation:
//   * predicate -> atom ids            (scan candidates for a body atom)
//   * (predicate, position, term) -> atom ids   (selective join probes)
// plus a per-term usage count used by the Pi-REPOPT fresh-value fast path.
//
// Retraction. The *original* facts of a repair session are never removed,
// but the incremental chase (chase/incremental_chase.h) maintains a
// long-lived chased base in which derived atoms come and go as fixes
// invalidate their derivations. Remove(id) supports this: it tombstones
// the atom and withdraws it from every index, so homomorphism search —
// which draws candidates exclusively from the indexes — never sees dead
// atoms. Ids are not recycled; atom(id) keeps returning the last value of
// a dead atom (provenance rendering), and alive(id) distinguishes.

#ifndef KBREPAIR_KB_FACT_BASE_H_
#define KBREPAIR_KB_FACT_BASE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kb/atom.h"
#include "kb/posting_index.h"
#include "kb/symbol_table.h"
#include "util/cow.h"

namespace kbrepair {

// AtomId and AtomSpan are defined in kb/posting_index.h.

class FactBase {
 public:
  FactBase() = default;

  // Copyable: sound-question filtering and Pi-repairability work on
  // scratch copies.
  FactBase(const FactBase&) = default;
  FactBase& operator=(const FactBase&) = default;
  FactBase(FactBase&&) = default;
  FactBase& operator=(FactBase&&) = default;

  // Appends a fact; all args must be constants or nulls (facts freeze
  // existential variables into labeled nulls before insertion).
  AtomId Add(Atom atom);

  size_t size() const { return atoms_.size(); }
  bool empty() const { return atoms_.empty(); }

  const Atom& atom(AtomId id) const {
    KBREPAIR_DCHECK(id < atoms_.size());
    return atoms_[id];
  }

  // Rewrites argument `pos` of atom `id` to `term`, maintaining indexes.
  // The atom must be alive.
  void SetArg(AtomId id, int pos, TermId term);

  // Tombstones atom `id`: removes it from every index so scans and join
  // probes no longer return it. The id stays allocated (never recycled)
  // and atom(id) keeps returning the final arguments. Removing a dead
  // atom is a DCHECK failure.
  void Remove(AtomId id);

  // False once `id` has been Remove()d.
  bool alive(AtomId id) const {
    KBREPAIR_DCHECK(id < atoms_.size());
    return id >= dead_.size() || !dead_[id];
  }

  // Number of atoms minus tombstones.
  size_t num_alive() const { return atoms_.size() - num_dead_; }

  // All atom ids sharing a predicate (insertion order). The span is valid
  // until the next mutation of this FactBase.
  AtomSpan AtomsWithPredicate(PredicateId pred) const;

  // All atom ids with `term` at argument `pos` of `pred`. Same validity
  // contract as AtomsWithPredicate.
  AtomSpan AtomsWithTermAt(PredicateId pred, int pos, TermId term) const;

  // True if some fact equals `atom` (used by the restricted chase).
  bool Contains(const Atom& atom) const;

  // Distinct terms appearing at argument `pos` of `pred`:
  // adom(p, i, F) in the paper.
  std::vector<TermId> ActiveDomain(PredicateId pred, int pos) const;

  // Number of argument positions currently holding `term` across all
  // facts. Zero means the term is unused.
  size_t TermUseCount(TermId term) const;

  // Total number of positions |pos(F)| = sum of arities.
  size_t NumPositions() const { return num_positions_; }

  // One atom per line, for debugging and the examples.
  std::string ToString(const SymbolTable& symbols) const;

  // Order-sensitive FNV-1a fingerprint over the alive atoms' *rendered*
  // structure (predicate and term names, not ids), so two bases built in
  // independent symbol tables hash equal iff they denote the same facts
  // in the same id order. Replay verification (kbrepair-debug) compares
  // these across a recorded session and its deterministic replay.
  uint64_t ContentHash(const SymbolTable& symbols) const;

  // --- Shared-base forking -----------------------------------------------

  // Flattens atoms and every index into an immutable shared base
  // segment. Afterwards plain copies of this FactBase share the segment
  // in O(1) and carry only their own delta overlay (rewritten args,
  // appended atoms, tombstones, touched posting lists). Requires no
  // tombstones: a shared base must be all-alive so per-fork tombstones
  // stay a private, lazily-sized bitmap.
  void FreezeSharedBase();

  bool has_shared_base() const { return atoms_.has_base(); }
  size_t shared_base_size() const { return atoms_.base_size(); }
  // Atoms/posting lists this instance materializes itself (its delta).
  size_t overlay_size() const {
    return atoms_.overlay_size() + by_predicate_.overlay_size() +
           by_probe_.overlay_size() + term_use_count_.overlay_size();
  }

 private:
  // Packs a (pred, pos, term) probe into a 64-bit map key.
  static uint64_t ProbeKey(PredicateId pred, int pos, TermId term) {
    return ((static_cast<uint64_t>(static_cast<uint32_t>(pred)) << 4 |
             static_cast<uint64_t>(pos))
            << 32) |
           static_cast<uint32_t>(term);
  }

  void IndexArg(AtomId id, int pos, TermId term);
  void UnindexArg(AtomId id, int pos, TermId term);

  CowVector<Atom> atoms_;
  PostingIndex<int32_t> by_predicate_;
  PostingIndex<uint64_t> by_probe_;
  CowMap<int32_t, size_t> term_use_count_;
  size_t num_positions_ = 0;
  // Tombstone flags; lazily sized on the first Remove() so bases that
  // never retract (the common case) pay nothing.
  std::vector<bool> dead_;
  size_t num_dead_ = 0;
};

}  // namespace kbrepair

#endif  // KBREPAIR_KB_FACT_BASE_H_
