#include "debug/inspect.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "chase/incremental_chase.h"
#include "chase/provenance.h"
#include "kb/symbol_table.h"
#include "repair/conflict.h"

namespace kbrepair {
namespace debug {

namespace {

// Chased view of the session: the saturated base the census matched
// against, with a derivation lookup over it. Either borrows the
// incremental engine's maintained base or owns a fresh inspection chase
// (cloned symbol table, so fresh nulls never touch the live session).
struct ChasedView {
  const FactBase* facts = nullptr;
  const SymbolTable* symbols = nullptr;
  size_t num_original = 0;
  DerivationFn derivation_of;
  // Owning storage for the fresh-chase path.
  std::unique_ptr<SymbolTable> cloned_symbols;
  std::unique_ptr<ChaseResult> result;
};

StatusOr<ChasedView> MakeChasedView(const InquiryEngine& engine,
                                    const KnowledgeBase& kb,
                                    ChaseOptions options) {
  ChasedView view;
  if (const IncrementalChase* delta = engine.delta_chase()) {
    view.facts = &delta->facts();
    view.symbols = &kb.symbols();
    view.num_original = delta->num_original();
    view.derivation_of = [delta](AtomId id) {
      return delta->derivation_or_null(id);
    };
    return view;
  }
  view.cloned_symbols = kb.symbols().Clone();
  options.stop_on_violation = false;
  ChaseEngine chase(view.cloned_symbols.get(), &kb.tgds(), nullptr, options);
  KBREPAIR_ASSIGN_OR_RETURN(ChaseResult result,
                            chase.Run(engine.working_facts()));
  view.result = std::make_unique<ChaseResult>(std::move(result));
  view.facts = &view.result->facts();
  view.symbols = view.cloned_symbols.get();
  view.num_original = view.result->num_original();
  const ChaseResult* r = view.result.get();
  view.derivation_of = [r](AtomId id) -> const Derivation* {
    return r->IsOriginal(id) ? nullptr : &r->derivation(id);
  };
  return view;
}

std::string RenderAtomId(AtomId id, const FactBase& working,
                         const ChasedView& chased) {
  if (id < working.size()) {
    return working.atom(id).ToString(*chased.symbols);
  }
  if (id < chased.facts->size()) {
    return chased.facts->atom(id).ToString(*chased.symbols) + " [derived]";
  }
  return "<atom " + std::to_string(id) + ">";
}

void RenderConflict(std::ostringstream& out, size_t index,
                    const Conflict& conflict, const std::vector<Cdd>& cdds,
                    const FactBase& working, const ChasedView& chased) {
  out << "conflict #" << index << ": cdd " << conflict.cdd_index;
  if (conflict.cdd_index < cdds.size()) {
    out << "  " << cdds[conflict.cdd_index].ToString(*chased.symbols);
  }
  out << "\n  matched:";
  for (AtomId id : conflict.matched) {
    out << "\n    " << RenderAtomId(id, working, chased);
  }
  out << "\n  support:";
  for (AtomId id : conflict.support) {
    out << "\n    " << id << "  " << RenderAtomId(id, working, chased);
  }
  out << "\n";
}

}  // namespace

ProvenanceInspector::ProvenanceInspector(const InquiryEngine* engine,
                                         const KnowledgeBase* kb,
                                         ChaseOptions chase_options)
    : engine_(engine), kb_(kb), chase_options_(std::move(chase_options)) {}

StatusOr<std::string> ProvenanceInspector::AtomReport(AtomId atom) const {
  const FactBase& working = engine_->working_facts();
  if (atom >= working.size()) {
    return Status::InvalidArgument(
        "atom " + std::to_string(atom) + " out of range (working base has " +
        std::to_string(working.size()) + " atoms)");
  }
  KBREPAIR_ASSIGN_OR_RETURN(ChasedView chased,
                            MakeChasedView(*engine_, *kb_, chase_options_));
  std::ostringstream out;
  out << "atom " << atom << ": " << working.atom(atom).ToString(*chased.symbols);
  if (!working.alive(atom)) out << "  [removed]";
  out << "\n";

  out << "support cone:\n";
  {
    std::istringstream cone(RenderSupportCone(
        atom, *chased.facts, *chased.symbols, chased.derivation_of));
    std::string line;
    while (std::getline(cone, line)) out << "  " << line << "\n";
  }

  if (atom < chased.num_original) {
    const std::vector<AtomId> forward =
        ForwardCone(atom, chased.facts->size(), chased.derivation_of);
    out << "forward cone: " << forward.size() << " derived atom(s)\n";
    constexpr size_t kMaxForward = 16;
    for (size_t i = 0; i < forward.size() && i < kMaxForward; ++i) {
      if (!chased.facts->alive(forward[i])) continue;
      out << "  " << forward[i] << "  "
          << chased.facts->atom(forward[i]).ToString(*chased.symbols) << "\n";
    }
    if (forward.size() > kMaxForward) {
      out << "  ... (" << forward.size() - kMaxForward << " more)\n";
    }
  }

  KBREPAIR_ASSIGN_OR_RETURN(std::vector<Conflict> census,
                            engine_->InspectCensus());
  size_t member_of = 0;
  std::ostringstream members;
  for (size_t i = 0; i < census.size(); ++i) {
    const std::vector<AtomId>& support = census[i].support;
    if (!std::binary_search(support.begin(), support.end(), atom)) continue;
    ++member_of;
    members << "  conflict #" << i << ": cdd " << census[i].cdd_index
            << ", support {";
    for (size_t j = 0; j < support.size(); ++j) {
      if (j > 0) members << ", ";
      members << support[j];
    }
    members << "}\n";
  }
  out << "in " << member_of << " of " << census.size()
      << " census conflict(s)\n"
      << members.str();
  return out.str();
}

StatusOr<std::string> ProvenanceInspector::CensusReport(
    size_t max_conflicts) const {
  KBREPAIR_ASSIGN_OR_RETURN(std::vector<Conflict> census,
                            engine_->InspectCensus());
  std::ostringstream out;
  out << census.size() << " conflict(s)\n";
  if (census.empty()) return out.str();
  KBREPAIR_ASSIGN_OR_RETURN(ChasedView chased,
                            MakeChasedView(*engine_, *kb_, chase_options_));
  const FactBase& working = engine_->working_facts();
  for (size_t i = 0; i < census.size(); ++i) {
    if (max_conflicts > 0 && i >= max_conflicts) {
      out << "... (" << census.size() - max_conflicts << " more)\n";
      break;
    }
    RenderConflict(out, i, census[i], kb_->cdds(), working, chased);
  }
  return out.str();
}

std::string ProvenanceInspector::PiReport() const {
  std::ostringstream out;
  out << "phase " << engine_->current_phase() << ", engine "
      << ConflictEngineName(engine_->active_engine()) << "\n";
  const PositionSet& pi = engine_->current_pi();
  const PositionSet& propagated = engine_->propagated_positions();
  out << "|Pi| = " << pi.size() << " (" << propagated.size()
      << " by propagation)\n";
  std::vector<Position> sorted(pi.begin(), pi.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Position& a, const Position& b) {
              return a.atom != b.atom ? a.atom < b.atom : a.arg < b.arg;
            });
  const FactBase& working = engine_->working_facts();
  const SymbolTable& symbols = kb_->symbols();
  for (const Position& p : sorted) {
    out << "  (" << working.atom(p.atom).ToString(symbols) << ", "
        << p.arg + 1 << ")";
    if (propagated.count(p) > 0) out << "  [propagated]";
    out << "\n";
  }
  if (const std::optional<size_t> skeleton = engine_->skeleton_census_size()) {
    out << "skeleton census: " << *skeleton
        << (*skeleton == 0 ? " (Pi-repairable)" : "") << "\n";
  }
  return out.str();
}

}  // namespace debug
}  // namespace kbrepair
