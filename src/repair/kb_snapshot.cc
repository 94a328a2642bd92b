#include "repair/kb_snapshot.h"

#include <utility>

#include "util/logging.h"

namespace kbrepair {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void MixBytes(uint64_t& h, const void* data, size_t len) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void MixU64(uint64_t& h, uint64_t v) { MixBytes(h, &v, sizeof(v)); }

void MixString(uint64_t& h, const std::string& s) {
  MixU64(h, s.size());
  MixBytes(h, s.data(), s.size());
}

void MixAtom(uint64_t& h, const Atom& atom) {
  MixU64(h, static_cast<uint64_t>(static_cast<uint32_t>(atom.predicate)));
  MixU64(h, atom.args.size());
  for (TermId arg : atom.args) {
    MixU64(h, static_cast<uint64_t>(static_cast<uint32_t>(arg)));
  }
}

size_t ApproxKbBytes(const KnowledgeBase& kb) {
  size_t bytes = 0;
  const SymbolTable& symbols = kb.symbols();
  for (TermId id = 0; id < static_cast<TermId>(symbols.num_terms()); ++id) {
    bytes += 48 + symbols.term_name(id).size();
  }
  const FactBase& facts = kb.facts();
  // Atom storage plus the two posting-list index families (~one entry
  // per argument position each).
  bytes += facts.size() * 48 + facts.NumPositions() * 2 * 24;
  return bytes;
}

}  // namespace

uint64_t HashKnowledgeBase(const KnowledgeBase& kb) {
  uint64_t h = kFnvOffset;
  const SymbolTable& symbols = kb.symbols();
  MixU64(h, symbols.num_terms());
  for (TermId id = 0; id < static_cast<TermId>(symbols.num_terms()); ++id) {
    MixU64(h, static_cast<uint64_t>(symbols.term_kind(id)));
    MixString(h, symbols.term_name(id));
  }
  MixU64(h, symbols.num_predicates());
  for (PredicateId id = 0;
       id < static_cast<PredicateId>(symbols.num_predicates()); ++id) {
    MixString(h, symbols.predicate_name(id));
    MixU64(h, static_cast<uint64_t>(symbols.predicate_arity(id)));
  }
  const FactBase& facts = kb.facts();
  MixU64(h, facts.size());
  for (AtomId id = 0; id < facts.size(); ++id) MixAtom(h, facts.atom(id));
  MixU64(h, kb.tgds().size());
  for (const Tgd& tgd : kb.tgds()) {
    MixU64(h, tgd.body().size());
    for (const Atom& atom : tgd.body()) MixAtom(h, atom);
    MixU64(h, tgd.head().size());
    for (const Atom& atom : tgd.head()) MixAtom(h, atom);
  }
  MixU64(h, kb.cdds().size());
  for (const Cdd& cdd : kb.cdds()) {
    MixU64(h, cdd.body().size());
    for (const Atom& atom : cdd.body()) MixAtom(h, atom);
  }
  return h;
}

StatusOr<InitialCensus> TakeInitialCensus(
    const FactBase& facts, const PositionSet& pi,
    const RepairabilityChecker& repairability, const ConflictFinder& finder) {
  InitialCensus census;
  KBREPAIR_ASSIGN_OR_RETURN(census.repairable,
                            repairability.IsPiRepairable(facts, pi));
  if (!census.repairable) return census;
  KBREPAIR_ASSIGN_OR_RETURN(const std::vector<Conflict> all,
                            finder.AllConflicts(facts));
  census.conflicts = all.size();
  census.naive = finder.NaiveConflicts(facts);
  return census;
}

StatusOr<std::shared_ptr<const SharedKbSnapshot>> BuildSharedKbSnapshot(
    KnowledgeBase kb, std::string label, const ChaseOptions& chase_options) {
  auto snapshot = std::make_shared<SharedKbSnapshot>();
  snapshot->label = std::move(label);
  snapshot->chase_options = chase_options;

  // Begin(Π=∅)'s census, taken on the base *before* freezing, so the
  // frozen symbol table holds exactly the terms (scratch nulls,
  // chase-minted nulls) a cold session's Begin would have interned.
  {
    RepairabilityChecker repairability(&kb.symbols(), &kb.tgds(), &kb.cdds(),
                                       chase_options);
    ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds(),
                          chase_options);
    KBREPAIR_ASSIGN_OR_RETURN(
        snapshot->census,
        TakeInitialCensus(kb.facts(), PositionSet{}, repairability, finder));
  }

  kb.FreezeShared();
  snapshot->content_hash = HashKnowledgeBase(kb);
  snapshot->approx_bytes = ApproxKbBytes(kb);
  snapshot->kb = std::move(kb);

  if (!snapshot->census.repairable) {
    return std::shared_ptr<const SharedKbSnapshot>(snapshot);
  }

  // Engine prototypes over a throwaway fork of the frozen table. The
  // mint guard drops them if saturating interned any fresh symbol (the
  // fork's null counter would then run ahead of a cold session's).
  auto proto_symbols = std::make_unique<SymbolTable>();
  proto_symbols->ForkFrom(snapshot->kb.symbols());
  const size_t term_guard = proto_symbols->num_terms();
  const KnowledgeBase& base = snapshot->kb;

  auto delta = std::make_unique<DeltaConflictEngine>(
      proto_symbols.get(), &base.tgds(), &base.cdds(), chase_options);
  Status status = delta->Initialize(base.facts());
  bool protos_ok = status.ok() && proto_symbols->num_terms() == term_guard;

  std::unique_ptr<DeltaConflictEngine> skeleton;
  if (protos_ok) {
    RepairabilityChecker repairability(proto_symbols.get(), &base.tgds(),
                                       &base.cdds(), chase_options);
    skeleton = std::make_unique<DeltaConflictEngine>(
        proto_symbols.get(), &base.tgds(), &base.cdds(), chase_options);
    status = skeleton->Initialize(
        repairability.BuildSkeleton(base.facts(), PositionSet{}));
    protos_ok = status.ok() && proto_symbols->num_terms() == term_guard;
  }

  if (protos_ok) {
    delta->FreezeShared();
    skeleton->FreezeShared();
    snapshot->proto_symbols = std::move(proto_symbols);
    snapshot->delta_proto = std::move(delta);
    snapshot->skeleton_proto = std::move(skeleton);
  }
  return std::shared_ptr<const SharedKbSnapshot>(snapshot);
}

}  // namespace kbrepair
