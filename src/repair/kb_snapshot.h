// SharedKbSnapshot: a frozen, pre-chased base KB that repair sessions
// fork from in O(delta) instead of re-parsing, re-interning, re-chasing
// and re-scanning a private copy.
//
// Building a snapshot runs the same TakeInitialCensus() that
// InquiryEngine::Begin() runs on a cold private KB — the Π-repairability
// skeleton check, the chased conflict census, the naive census — *before*
// freezing the symbol table, so the frozen base captures the precise
// post-Begin state (including chase-minted nulls) every cold session
// would reach. A fork then adopts the stored census via
// InquiryEngine::BeginShared() and the two maintained engines via their
// frozen prototypes:
//
//  * delta_proto    — a DeltaConflictEngine saturated over the base
//                     facts; forks adopt it and replay their own applied
//                     fixes (recovery) on top.
//  * skeleton_proto — a DeltaConflictEngine over the Π=∅ skeleton;
//                     forks adopt it and replay the frozen positions of
//                     their current Π as position rewrites (stable
//                     per-position scratch nulls make that exact).
//
// Prototype envelope: the prototypes are only kept when building them
// interned no fresh symbol (mint guard). A chase that mints fresh nulls
// — existential TGDs firing — would advance the fork's null counter
// differently from a cold session's lazy engine construction, breaking
// byte-identity; those bases simply fall back to cold per-session engine
// initialization while still sharing symbols/facts/census. Full
// (existential-free) TGD sets — the synthetic and Durum Wheat workloads —
// always keep their prototypes.

#ifndef KBREPAIR_REPAIR_KB_SNAPSHOT_H_
#define KBREPAIR_REPAIR_KB_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "kb/symbol_table.h"
#include "repair/conflict.h"
#include "repair/delta_conflicts.h"
#include "repair/repairability.h"
#include "rules/knowledge_base.h"
#include "util/status.h"

namespace kbrepair {

// Begin()'s census of (facts, Π).
struct InitialCensus {
  bool repairable = false;
  // Filled only when repairable:
  size_t conflicts = 0;         // allconflicts(K), chase included
  std::vector<Conflict> naive;  // the conflicts visible without chasing
};

// The Π-repairability verdict, then the chased and naive censuses. Both
// Begin() and BuildSharedKbSnapshot() take it here: the call order
// decides which scratch and chase nulls are interned first, so a shared
// order keeps cold sessions and snapshot forks byte-identical.
StatusOr<InitialCensus> TakeInitialCensus(
    const FactBase& facts, const PositionSet& pi,
    const RepairabilityChecker& repairability, const ConflictFinder& finder);

// Precomputed Begin() state handed to InquiryEngine::BeginShared() by a
// session forked from a snapshot. All pointers must outlive the engine.
struct SharedBeginSeed {
  const InitialCensus* census = nullptr;
  // Null when the snapshot's mint guard dropped the prototypes.
  const DeltaConflictEngine* delta_proto = nullptr;
  const DeltaConflictEngine* skeleton_proto = nullptr;
};

struct SharedKbSnapshot {
  std::string label;

  // The frozen base: shared symbol/fact segments + shared rule vectors.
  KnowledgeBase kb;
  ChaseOptions chase_options;

  // Begin()'s census of (kb, Π=∅).
  InitialCensus census;

  // Frozen engine prototypes (null when the mint guard fired). They
  // intern into proto_symbols — a throwaway fork of the frozen table —
  // so probing them can never pollute the shared base.
  std::unique_ptr<SymbolTable> proto_symbols;
  std::unique_ptr<DeltaConflictEngine> delta_proto;
  std::unique_ptr<DeltaConflictEngine> skeleton_proto;

  // FNV-1a over symbols, facts and rule structure; two registrations of
  // the same logical KB hash identically (registry idempotence check).
  uint64_t content_hash = 0;
  // Rough resident footprint of the shared segments, for metrics.
  size_t approx_bytes = 0;

  // O(delta) per-session KB: shares symbol/fact segments and rules.
  KnowledgeBase Fork() const { return kb.ForkShared(); }

  // The Begin() adoption bundle; valid while the snapshot lives.
  SharedBeginSeed Seed() const {
    SharedBeginSeed seed;
    seed.census = &census;
    seed.delta_proto = delta_proto.get();
    seed.skeleton_proto = skeleton_proto.get();
    return seed;
  }
};

// Structural FNV-1a hash of a KB (symbols, facts, rules). Exposed so the
// base registry can verify re-registration identity.
uint64_t HashKnowledgeBase(const KnowledgeBase& kb);

// Consumes `kb`, takes Begin(Π=∅)'s census of it, freezes it and builds
// the engine prototypes (mint-guarded). Fails only if the census itself
// fails (e.g. chase atom cap).
StatusOr<std::shared_ptr<const SharedKbSnapshot>> BuildSharedKbSnapshot(
    KnowledgeBase kb, std::string label, const ChaseOptions& chase_options);

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_KB_SNAPSHOT_H_
